"""Sparse Cholesky factorization of SPD (SDD) matrices.

Every sparsifier factors through :func:`cholesky`: scipy's compiled
SuperLU in symmetric mode (``diag_pivot_thresh=0``), standing in for
CHOLMOD [3] in the paper's experiments.  There is one factorization
and no fallback.  For an SPD matrix SuperLU returns
``A[p][:, p] = L U`` with unit-diagonal ``L`` and ``U = D L^T``; we
expose the true Cholesky factor ``L_chol = L sqrt(D)`` so that
downstream code (Algorithm 1's sparse approximate inverse) sees an
ordinary lower Cholesky factor.

If SuperLU's row and column permutations disagree, it pivoted
asymmetrically and the Cholesky reading is invalid: :func:`cholesky`
raises :class:`~repro.exceptions.FactorizationError`, as it does for a
matrix SuperLU finds singular or one with a nonpositive pivot.

The factor keeps SuperLU's fill-reducing permutation ``perm`` with the
convention ``A[perm][:, perm] = L @ L.T``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from repro.exceptions import FactorizationError
from repro.utils.validation import check_square_sparse

__all__ = ["CholeskyFactor", "cholesky"]


class CholeskyFactor:
    """Factored SPD matrix: ``A[perm][:, perm] = L @ L.T``.

    Use :func:`cholesky` to construct one.  The object supports repeated
    solves (factor once / solve many, as the paper's PCG preconditioner
    and direct transient solver both require).
    """

    def __init__(self, L, perm, lu):
        self.L = L                     # csc, lower triangular, diag first
        self.perm = np.asarray(perm, dtype=np.int64)
        self._lu = lu                  # the SuperLU object that solves
        self.n = L.shape[0]
        self.iperm = np.empty(self.n, dtype=np.int64)
        self.iperm[self.perm] = np.arange(self.n)

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Nonzeros in the lower factor."""
        return int(self.L.nnz)

    def memory_bytes(self) -> int:
        """Approximate storage of the factor (values + row indices)."""
        return int(self.L.nnz) * (8 + 4) + 8 * self.n

    # ------------------------------------------------------------------
    def solve(self, b) -> np.ndarray:
        """Solve ``A x = b`` (vector or matrix right-hand side)."""
        return self._lu.solve(np.asarray(b, dtype=np.float64))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CholeskyFactor(n={self.n}, nnz={self.nnz})"


def cholesky(matrix) -> CholeskyFactor:
    """Factor an SPD sparse matrix with SuperLU.

    Parameters
    ----------
    matrix:
        Square SPD scipy sparse matrix (SDD Laplacian + shift in this
        package's use).  SuperLU applies its own MMD ordering.

    Raises
    ------
    TypeError, ValueError
        When *matrix* is not sparse, or not square.
    repro.exceptions.FactorizationError
        When SuperLU finds the matrix singular, pivots asymmetrically,
        or meets a nonpositive pivot.
    """
    check_square_sparse("matrix", matrix)
    matrix = sp.csc_matrix(matrix)
    n = matrix.shape[0]
    try:
        lu = splu(
            matrix,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError as exc:  # singular matrix
        raise FactorizationError(f"SuperLU failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise FactorizationError("SuperLU pivoted asymmetrically")
    diag = lu.U.diagonal()
    if np.any(diag <= 0):
        raise FactorizationError("matrix is not positive definite")
    L = (lu.L @ sp.diags(np.sqrt(diag))).tocsc()
    L.sort_indices()
    # scipy convention: A[ipc][:, ipc] = L U with ipc the inverse of
    # perm_c (verified numerically in tests); our perm is that inverse.
    perm = np.empty(n, dtype=np.int64)
    perm[lu.perm_c] = np.arange(n)
    return CholeskyFactor(L, perm, lu)
