"""Optional CHOLMOD backend via scikit-sparse.

The paper's experiments factor with CHOLMOD [3]; when
``scikit-sparse`` is importable this backend exposes it through the
same :class:`~repro.linalg.cholesky.CholeskyFactor`-shaped interface
the rest of the pipeline consumes.  Availability is detected once at
import probe time — on machines without the library the backend stays
registered but reports ``available=False`` and selecting it raises a
:class:`~repro.exceptions.BackendError` naming the missing dependency
(nothing is ever auto-installed).

Factor persistence follows the same probe philosophy:
:class:`CholmodFactor` implements pickling by delegating to the
wrapped ``sksparse`` factor, and
:meth:`CholmodBackend.supports_persistent_factors` round-trips a tiny
factor at first call to report truthfully whether the installed
library pickles with bit-identical solves — so the ``persistent_factors``
capability flag (and with it the disk artifact cache's decision to
persist ``factor_g``) reflects this machine, not an assumption.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import LinalgBackend
from repro.exceptions import BackendError, FactorizationError

__all__ = ["CholmodBackend", "CholmodFactor"]

_CHOLMOD = None
_PROBED = False
_PERSISTENT: bool | None = None


def _cholmod_module():
    """Import ``sksparse.cholmod`` once; cache the result (or None)."""
    global _CHOLMOD, _PROBED
    if not _PROBED:
        _PROBED = True
        try:
            from sksparse import cholmod  # type: ignore[import-not-found]

            _CHOLMOD = cholmod
        except Exception:  # pragma: no cover - environment-dependent
            _CHOLMOD = None
    return _CHOLMOD


class CholmodFactor:
    """CHOLMOD factor adapted to the ``CholeskyFactor`` interface.

    Keeps the convention ``A[perm][:, perm] = L @ L.T`` and solves
    through CHOLMOD's compiled routines.
    """

    backend = "cholmod"

    def __init__(self, cholmod_factor):
        self._factor = cholmod_factor
        self.L = cholmod_factor.L().tocsc()
        self.L.sort_indices()
        self.perm = np.asarray(cholmod_factor.P(), dtype=np.int64)
        self.n = self.L.shape[0]
        self.iperm = np.empty(self.n, dtype=np.int64)
        self.iperm[self.perm] = np.arange(self.n)

    @property
    def nnz(self) -> int:
        """Nonzeros in the lower factor."""
        return int(self.L.nnz)

    def memory_bytes(self) -> int:
        """Approximate storage of the factor (values + row indices)."""
        return int(self.L.nnz) * (8 + 4) + 8 * self.n

    def solve(self, b) -> np.ndarray:
        """Solve ``A x = b`` (vector or matrix right-hand side)."""
        return self._factor(np.asarray(b, dtype=np.float64))

    def as_preconditioner(self):
        """Return ``M_solve(r) = A^{-1} r`` for PCG preconditioning."""
        return self.solve

    def __getstate__(self) -> dict:
        """Pickle only the wrapped CHOLMOD factor.

        ``L``/``perm``/``iperm`` are derived views; rebuilding them in
        :meth:`__setstate__` keeps the pickle minimal and guarantees
        the restored wrapper is internally consistent.
        """
        return {"factor": self._factor}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["factor"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CholmodFactor(n={self.n}, nnz={self.nnz})"


class CholmodBackend(LinalgBackend):
    """CHOLMOD (scikit-sparse) factorization, when installed."""

    name = "cholmod"
    description = "CHOLMOD via scikit-sparse (optional, auto-detected)"
    compiled_factorization = True
    persistent_factors = False

    @classmethod
    def is_available(cls) -> bool:
        """True when ``sksparse.cholmod`` imports on this machine."""
        return _cholmod_module() is not None

    @classmethod
    def supports_persistent_factors(cls) -> bool:
        """Probe (once) whether factors pickle with bitwise solves.

        Factors a tiny SPD matrix, round-trips the
        :class:`CholmodFactor` through pickle and compares a solve
        bit for bit.  Anything short of a bitwise match — including a
        pickle error from an older scikit-sparse — reports False, so
        the disk cache never persists factors this library cannot
        faithfully restore.
        """
        global _PERSISTENT
        if _PERSISTENT is None:
            if not cls.is_available():
                return False  # leave unprobed: the library may appear
            import io
            import pickle

            import scipy.sparse as sp

            try:
                matrix = sp.eye(3, format="csc") * 2.0
                matrix = matrix + sp.diags([0.5, 0.5], offsets=1) \
                    + sp.diags([0.5, 0.5], offsets=-1)
                factor = cls().factorize(sp.csc_matrix(matrix))
                rhs = np.arange(1.0, 4.0)
                expected = factor.solve(rhs)
                buffer = io.BytesIO()
                pickle.dump(factor, buffer)
                buffer.seek(0)
                restored = pickle.load(buffer)
                _PERSISTENT = bool(
                    np.array_equal(restored.solve(rhs), expected)
                )
            except Exception:  # pragma: no cover - library-dependent
                _PERSISTENT = False
        return _PERSISTENT

    def factorize(self, matrix):
        """Factor through CHOLMOD."""
        cholmod = _cholmod_module()
        if cholmod is None:
            raise BackendError(
                "backend 'cholmod' needs scikit-sparse, which is not "
                "installed in this environment"
            )
        import scipy.sparse as sp

        try:
            factor = cholmod.cholesky(sp.csc_matrix(matrix))
            return CholmodFactor(factor)
        except cholmod.CholmodNotPositiveDefiniteError as exc:
            raise FactorizationError(
                f"CHOLMOD: matrix is not positive definite: {exc}"
            ) from exc
