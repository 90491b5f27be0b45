"""The pure-numpy fallback backend.

Routes every kernel through the package's from-scratch numpy
implementations: the up-looking CSparse-style Cholesky
(:func:`repro.linalg.cholesky.cholesky` with ``backend="python"``),
the column-oriented CSC triangular solves, the hand-written PCG and
the SPAI recurrence.  No compiled sparse-solver code runs at all
(scipy.sparse is used only as array storage), which makes this backend
the portable reference: slower than SuperLU, but deterministic,
dependency-light, and its factors pickle losslessly — so the on-disk
artifact cache can persist them across processes.
"""

from __future__ import annotations

from repro.backends.base import LinalgBackend
from repro.linalg.cholesky import cholesky

__all__ = ["NumpyBackend"]


class NumpyBackend(LinalgBackend):
    """From-scratch numpy kernels end to end."""

    name = "numpy"
    description = "pure-numpy up-looking Cholesky (portable reference)"
    compiled_factorization = False
    persistent_factors = True

    def factorize(self, matrix):
        """Factor with the pure-Python up-looking Cholesky (RCM order)."""
        return cholesky(matrix, backend="python", ordering="rcm")
