"""The default backend: scipy's compiled SuperLU factorization.

This is exactly the code path the package used before the backend
layer existed — :func:`repro.linalg.cholesky.cholesky` with
``backend="auto"`` (SuperLU in symmetric mode, silent fallback to the
pure-Python factorization when SuperLU pivots asymmetrically) — so
``backend="scipy"`` is bit-identical to pre-backend output by
construction; ``tests/test_backends.py`` locks that down.
"""

from __future__ import annotations

from repro.backends.base import LinalgBackend
from repro.linalg.cholesky import cholesky

__all__ = ["ScipyBackend"]


class ScipyBackend(LinalgBackend):
    """SuperLU-backed factorization; reference numpy everything else.

    The factors carry a live ``scipy.sparse.linalg.SuperLU`` object,
    whose compiled solve is fast but cannot be pickled — so SuperLU
    factors are not persisted by the on-disk artifact cache
    (``persistent_factors`` is False); downstream artifacts built from
    them (e.g. resistance sketches) are persisted instead.
    """

    name = "scipy"
    description = "SuperLU Cholesky (compiled, the default)"
    compiled_factorization = True
    persistent_factors = False

    def factorize(self, matrix):
        """Factor through SuperLU (pure-Python fallback on failure)."""
        return cholesky(matrix)
