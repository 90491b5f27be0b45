"""Placeholder for the removed linear-algebra backend layer.

Every method now factors through :func:`repro.linalg.cholesky`, the
one factorization (SuperLU; an asymmetric pivot raises
``FactorizationError``), so this package defines nothing.  It still
exists only because ``perfbench/tracer.py`` imports every entry of its
``LAYER_PACKAGES``, which names ``repro.backends``; delete this module
together with that entry in the next change to the benchmark.
"""
