"""Sparse triangular solves on CSC lower factors.

These are column-oriented solves vectorized with numpy per column, used
by the pure-Python Cholesky factorization, the fallback when SuperLU
pivots asymmetrically (SuperLU factors solve through its own compiled
routines).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import FactorizationError

__all__ = ["solve_lower_csc", "solve_upper_from_lower_csc"]


def _as_sorted_csc(L) -> sp.csc_matrix:
    matrix = sp.csc_matrix(L)
    if not matrix.has_sorted_indices:
        matrix.sort_indices()
    return matrix


def solve_lower_csc(L, b) -> np.ndarray:
    """Solve ``L y = b`` for lower-triangular CSC ``L`` (diagonal first).

    *b* may be a vector or a 2-D array of right-hand sides (columns).
    """
    L = _as_sorted_csc(L)
    n = L.shape[0]
    x = np.array(b, dtype=np.float64, copy=True)
    indptr, indices, data = L.indptr, L.indices, L.data
    for j in range(n):
        start, stop = indptr[j], indptr[j + 1]
        if start == stop or indices[start] != j:
            raise FactorizationError(f"missing diagonal in column {j}")
        x[j] = x[j] / data[start]
        if stop > start + 1:
            rows = indices[start + 1 : stop]
            vals = data[start + 1 : stop]
            if x.ndim == 1:
                x[rows] -= vals * x[j]
            else:
                x[rows] -= np.outer(vals, x[j])
    return x


def solve_upper_from_lower_csc(L, b) -> np.ndarray:
    """Solve ``L^T x = b`` given the lower factor ``L`` in CSC.

    Column ``j`` of ``L`` is row ``j`` of ``L^T``, so the backward solve
    reads each column once: ``x[j] = (b[j] - L[j+1:, j] . x[j+1:]) / L[j, j]``.
    """
    L = _as_sorted_csc(L)
    n = L.shape[0]
    x = np.array(b, dtype=np.float64, copy=True)
    indptr, indices, data = L.indptr, L.indices, L.data
    for j in range(n - 1, -1, -1):
        start, stop = indptr[j], indptr[j + 1]
        if start == stop or indices[start] != j:
            raise FactorizationError(f"missing diagonal in column {j}")
        if stop > start + 1:
            rows = indices[start + 1 : stop]
            vals = data[start + 1 : stop]
            if x.ndim == 1:
                x[j] -= vals @ x[rows]
            else:
                x[j] -= vals @ x[rows]
        x[j] = x[j] / data[start]
    return x
