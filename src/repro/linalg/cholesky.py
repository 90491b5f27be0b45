"""Sparse Cholesky factorization of SPD (SDD) matrices.

Every sparsifier factors through :func:`cholesky` with its default
``backend="auto"``.  Two factorizations sit behind one
:class:`CholeskyFactor` interface:

``"python"``
    A from-scratch up-looking factorization (CSparse's ``cs_chol``
    algorithm): elimination tree, per-row ``ereach`` symbolic pattern,
    numpy-vectorized sparse triangular updates.  The reference
    implementation — slow but transparent and heavily tested.

``"superlu"``
    scipy's compiled SuperLU in symmetric mode (``diag_pivot_thresh=0``)
    — the fast path, standing in for CHOLMOD [3] in the paper's
    experiments.  For an SPD matrix SuperLU returns ``A[p][:, p] = L U``
    with unit-diagonal ``L`` and ``U = D L^T``; we expose the true
    Cholesky factor ``L_chol = L sqrt(D)`` so that downstream code
    (Algorithm 1's sparse approximate inverse) sees an ordinary lower
    Cholesky factor either way.

``"auto"`` picks SuperLU and silently falls back to Python if SuperLU's
row/column permutations disagree (which would mean it pivoted
asymmetrically and the Cholesky reading is invalid).

Both factorizations keep the fill-reducing permutation ``perm`` with
the convention ``A[perm][:, perm] = L @ L.T``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from repro.exceptions import FactorizationError
from repro.linalg.etree import elimination_tree, ereach
from repro.linalg.ordering import (
    minimum_degree_ordering,
    natural_ordering,
    rcm_ordering,
)
from repro.linalg.triangular import solve_lower_csc, solve_upper_from_lower_csc
from repro.utils.validation import check_square_sparse

__all__ = ["CholeskyFactor", "cholesky"]

_ORDERINGS = {
    "natural": natural_ordering,
    "rcm": rcm_ordering,
    "mindeg": minimum_degree_ordering,
}


class CholeskyFactor:
    """Factored SPD matrix: ``A[perm][:, perm] = L @ L.T``.

    Use :func:`cholesky` to construct one.  The object supports repeated
    solves (factor once / solve many, as the paper's PCG preconditioner
    and direct transient solver both require).
    """

    def __init__(self, L, perm, backend, lu=None):
        self.L = L                     # csc, lower triangular, diag first
        self.perm = np.asarray(perm, dtype=np.int64)
        self.backend = backend
        self._lu = lu                  # SuperLU object when available
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
        b = np.asarray(b, dtype=np.float64)
        if self._lu is not None:
            return self._lu.solve(b)
        pb = b[self.perm]
        y = solve_lower_csc(self.L, pb)
        z = solve_upper_from_lower_csc(self.L, y)
        x = np.empty_like(z)
        x[self.perm] = z
        return x

    def solve_lower(self, b_permuted) -> np.ndarray:
        """Solve ``L y = b`` in the permuted domain (advanced use)."""
        return solve_lower_csc(self.L, np.asarray(b_permuted, dtype=np.float64))

    def solve_upper(self, b_permuted) -> np.ndarray:
        """Solve ``L^T x = b`` in the permuted domain (advanced use)."""
        return solve_upper_from_lower_csc(
            self.L, np.asarray(b_permuted, dtype=np.float64)
        )

    def as_preconditioner(self):
        """Return ``M_solve(r) = A^{-1} r`` for use as a PCG preconditioner."""
        return self.solve

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CholeskyFactor(n={self.n}, nnz={self.nnz}, "
            f"backend={self.backend!r})"
        )


def cholesky(matrix, backend="auto", ordering="auto", check=False):
    """Factor an SPD sparse matrix, returning a :class:`CholeskyFactor`.

    Parameters
    ----------
    matrix:
        Square SPD scipy sparse matrix (SDD Laplacian + shift in this
        package's use).
    backend:
        ``"auto"`` | ``"superlu"`` | ``"python"``.
    ordering:
        Only used by the Python backend: ``"auto"`` (= RCM), ``"rcm"``,
        ``"mindeg"`` or ``"natural"``.  SuperLU applies its own MMD
        ordering internally.
    check:
        When true, verify ``A[perm][:, perm] - L L^T`` is numerically
        tiny (costs one sparse multiply; meant for tests).
    """
    check_square_sparse("matrix", matrix)
    matrix = sp.csc_matrix(matrix)
    if backend not in ("auto", "superlu", "python"):
        raise FactorizationError(f"unknown backend {backend!r}")

    factor = None
    if backend in ("auto", "superlu"):
        try:
            factor = _factor_superlu(matrix)
        except FactorizationError:
            if backend == "superlu":
                raise
    if factor is None:
        factor = _factor_python(matrix, ordering)
    if check:
        _verify(matrix, factor)
    return factor


def _verify(matrix, factor, tol=1e-8) -> None:
    reordered = matrix[factor.perm][:, factor.perm]
    residual = (reordered - factor.L @ factor.L.T)
    scale = max(1.0, abs(matrix.data).max())
    err = abs(residual.data).max() if residual.nnz else 0.0
    if err > tol * scale:
        raise FactorizationError(
            f"factor verification failed: residual {err:.3e}"
        )


# ----------------------------------------------------------------------
# SuperLU backend
# ----------------------------------------------------------------------
def _factor_superlu(matrix) -> CholeskyFactor:
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
    return CholeskyFactor(L, perm, backend="superlu", lu=lu)


# ----------------------------------------------------------------------
# Pure-Python up-looking backend
# ----------------------------------------------------------------------
def _factor_python(matrix, ordering="auto") -> CholeskyFactor:
    if ordering == "auto":
        ordering = "rcm"
    if ordering not in _ORDERINGS:
        raise FactorizationError(f"unknown ordering {ordering!r}")
    perm = _ORDERINGS[ordering](matrix)
    reordered = sp.csc_matrix(matrix[perm][:, perm])
    L = _up_looking_cholesky(reordered)
    return CholeskyFactor(L, perm, backend="python", lu=None)


def _up_looking_cholesky(A) -> sp.csc_matrix:
    """Up-looking Cholesky of a reordered CSC matrix (CSparse cs_chol)."""
    n = A.shape[0]
    upper = sp.triu(A, k=0, format="csc")
    upper.sort_indices()
    parent = elimination_tree(A)
    marker = np.full(n, -1, dtype=np.int64)

    # Factor columns stored as growable python lists; column j of L gets
    # its diagonal first, then row entries are appended as rows k > j
    # are processed (rows arrive in increasing k, keeping columns sorted).
    col_rows: list = [[] for _ in range(n)]
    col_vals: list = [[] for _ in range(n)]
    diag = np.zeros(n)
    x = np.zeros(n)  # dense accumulator for the current row

    up_indptr, up_indices, up_data = upper.indptr, upper.indices, upper.data
    for k in range(n):
        pattern = ereach(upper, k, parent, marker, k)
        # Scatter A[0:k+1, k] into the accumulator.
        akk = 0.0
        for idx in range(up_indptr[k], up_indptr[k + 1]):
            i = int(up_indices[idx])
            if i == k:
                akk = up_data[idx]
            else:
                x[i] = up_data[idx]
        d = akk
        for j in pattern:
            lkj = x[j] / diag[j]
            x[j] = 0.0
            rows_j = col_rows[j]
            if rows_j:
                vals_j = col_vals[j]
                rows_array = np.asarray(rows_j, dtype=np.int64)
                vals_array = np.asarray(vals_j, dtype=np.float64)
                x[rows_array] -= vals_array * lkj
            d -= lkj * lkj
            col_rows[j].append(k)
            col_vals[j].append(lkj)
        if d <= 0.0:
            raise FactorizationError(
                f"matrix is not positive definite at pivot {k}"
            )
        diag[k] = np.sqrt(d)

    # Assemble CSC: diagonal entry first in each column.
    lengths = np.asarray([1 + len(col_rows[j]) for j in range(n)])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1], dtype=np.float64)
    for j in range(n):
        start = indptr[j]
        indices[start] = j
        data[start] = diag[j]
        count = len(col_rows[j])
        if count:
            indices[start + 1 : start + 1 + count] = col_rows[j]
            data[start + 1 : start + 1 + count] = col_vals[j]
    L = sp.csc_matrix((data, indices, indptr), shape=(n, n))
    L.sort_indices()
    return L
