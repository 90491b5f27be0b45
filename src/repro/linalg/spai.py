"""Algorithm 1 — sparse approximate inverse of a Cholesky factor.

Given the lower Cholesky factor ``L`` of an SDD matrix, the exact
inverse ``Z = L^{-1}`` satisfies the column recurrence (Proposition 2 of
the paper)::

    z_j = (1 / L_jj) e_j + sum_{i > j, L_ij != 0} (-L_ij / L_jj) z_i

Because ``L`` comes from an SDD M-matrix, its off-diagonal entries are
nonpositive and every entry of ``Z`` is nonnegative (Proposition 1), so
columns can be built from ``j = n-1`` down to ``0`` with a simple
magnitude-threshold pruning: entries smaller than ``delta * max`` are
dropped, except that columns with at most ``log n`` entries are kept
exactly.  The result ``Z~`` approximates ``L^{-1}`` with per-column
error bounded by the worst pruned column (Eq. 19).

With ``delta = 0.1`` the paper observes ``nnz(Z~) ~ n log n``; the
ablation benchmark ``bench_ablation_delta`` measures the same curve for
this implementation.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import FactorizationError
from repro.utils.arrays import (concat_ranges, forest_depths, gather_ranges,
                                sparse_product)
from repro.utils.validation import check_square_sparse

__all__ = ["sparse_approximate_inverse"]


def sparse_approximate_inverse(L, delta=0.1, keep_threshold=None):
    """Compute ``Z~ ~= L^{-1}`` for a lower-triangular Cholesky factor.

    Column ``j`` needs the finished columns ``z~_i`` for every
    ``L_ij != 0``; for a Cholesky factor those are ``j``'s ancestors in
    the elimination tree.  Columns are therefore built one dependency
    level at a time (:func:`dependency_levels`): the columns of a level
    are independent, so a level is one sparse product and one
    vectorized pruning pass.  Row ``j`` of the product's left operand
    holds ``1 / L_jj`` on the unit row ``e_j`` first, then
    ``-L_ij / L_jj`` on each finished ``z~_i`` by ascending ``i``; the
    right operand stacks the identity on the finished columns, in the
    order they were built.  The product
    (:func:`~repro.utils.arrays.sparse_product`) sums each entry's terms
    in that order from ``0.0``, and explicit zeros of ``L`` contribute
    nothing.

    Parameters
    ----------
    L:
        Lower-triangular CSC factor with positive diagonal and
        nonpositive off-diagonal entries (e.g. ``CholeskyFactor.L``).
    delta:
        Pruning threshold: entries below ``delta * max(column)`` are
        dropped (paper default 0.1).
    keep_threshold:
        Columns with at most this many nonzeros are never pruned;
        defaults to ``log(n)`` as in Algorithm 1.

    Returns
    -------
    scipy.sparse.csc_matrix
        Sparse approximation to ``L^{-1}`` (lower triangular,
        nonnegative entries).
    """
    check_square_sparse("L", L)
    if not (0.0 <= delta < 1.0):
        raise ValueError(f"delta must be in [0, 1), got {delta}")
    L = sp.csc_matrix(L)
    if not L.has_sorted_indices:
        L.sort_indices()
    n = L.shape[0]
    if keep_threshold is None:
        keep_threshold = max(1, int(np.ceil(np.log(max(n, 2)))))

    indices = L.indices.astype(np.int64)
    column = np.repeat(np.arange(n), np.diff(L.indptr))
    inv_diag = 1.0 / _diagonal(L.indptr, indices, L.data, n)
    # Coefficients -L_ij / L_jj of the recurrence; zeros are skipped.
    off = np.flatnonzero(indices != column)
    coeff = -L.data[off] * inv_diag[column[off]]
    live = coeff != 0.0
    dep_col, dep_row, coeff = column[off[live]], indices[off[live]], \
        coeff[live]

    levels = dependency_levels(n, dep_col, dep_row)
    order = np.argsort(levels, kind="stable")
    bounds = np.searchsorted(levels[order],
                             np.arange(levels.max(initial=-1) + 2))
    built = _Operands(n, order, dep_col, dep_row, coeff, inv_diag,
                      capacity=n + len(L.data))
    for level in range(len(bounds) - 1):
        lo, hi = int(bounds[level]), int(bounds[level + 1])
        ptr, rows, sums = built.product(lo, hi)
        keep = _prune(sums, ptr, delta, keep_threshold)
        if keep is not None:
            kept = np.zeros(len(sums) + 1, dtype=ptr.dtype)
            np.cumsum(keep, out=kept[1:])
            ptr, rows, sums = kept[ptr], rows[keep], sums[keep]
        built.append(lo, hi, ptr, rows, sums)
    return built.matrix()


def _diagonal(indptr, indices, data, n):
    """The diagonal of *L*, raising as the column recurrence would.

    The recurrence runs from column ``n - 1`` down, so the highest bad
    column is the one reported.
    """
    starts = indptr[:-1]
    present = indptr[1:] > starts
    present[present] = indices[starts[present]] == np.flatnonzero(present)
    diag = np.zeros(n)
    diag[present] = data[starts[present]]
    bad = np.flatnonzero(~present | (diag <= 0))
    if len(bad):
        j = int(bad[-1])
        if not present[j]:
            raise FactorizationError(f"missing diagonal in column {j}")
        raise FactorizationError(f"nonpositive diagonal at column {j}")
    return diag


def dependency_levels(n, dep_col, dep_row):
    """Level of each column in Algorithm 1's dependency order.

    Column ``j = dep_col[k]`` needs column ``i = dep_row[k] > j``; the
    pairs are sorted by column, rows ascending.  Level-0 columns need
    nothing and every other column sits above all columns it needs, so
    the columns of one level can be built together.  For a Cholesky
    factor every needed column is an elimination-tree ancestor, so the
    etree depth (found by pointer jumping from the etree parents, the
    first row of each column) already is such a level; any other lower
    triangular pattern is settled by raising late columns until none is
    out of order.  The elimination tree and the ancestor structure of
    ``L^{-1}`` are those of T. Davis, *Direct Methods for Sparse Linear
    Systems*.

    Parameters
    ----------
    n : int
        Column count.
    dep_col, dep_row : numpy.ndarray
        The dependency pairs.

    Returns
    -------
    numpy.ndarray
        ``int64`` level per column.
    """
    parent = np.full(n, -1, dtype=np.int64)
    first = np.flatnonzero(np.diff(dep_col, prepend=-1) != 0)
    parent[dep_col[first]] = dep_row[first]
    level, _ = forest_depths(parent)
    while True:
        late = level[dep_row] >= level[dep_col]
        if not late.any():
            return level
        np.maximum.at(level, dep_col[late], level[dep_row[late]] + 1)


class _Operands:
    """The two operands of a level's product; ``B`` holds the finished
    columns.

    The operand ``B`` stacks the identity (rows ``0 .. n-1``) on the
    finished columns, column ``order[k]`` at row ``n + k``: columns are
    built in *order*, so its rows fill in from the top and its offsets
    stay one running sum.  The left operand ``A`` is known up front,
    since each column's place in *order* is: its row ``k`` is column
    ``order[k]``'s recurrence, ``1 / L_jj`` on unit row ``j`` first,
    then each coefficient on row ``n + place[i]`` by ascending ``i``,
    and a level is the slice of ``A``'s rows of its columns.  Index
    arrays are ``int32`` unless ``B``'s offsets could pass it, which
    takes more than 65,535 columns.
    """

    def __init__(self, n, order, dep_col, dep_row, coeff, inv_diag,
                 capacity):
        self.n = n
        self.place = np.empty(n, dtype=np.int64)
        self.place[order] = np.arange(n)
        # B holds the identity and at most n (n + 1) / 2 entries of Z.
        index = np.int32 if n + n * (n + 1) // 2 <= np.iinfo(np.int32).max \
            else np.int64
        a_ptr = np.zeros(n + 1, dtype=index)
        np.cumsum(np.bincount(dep_col, minlength=n)[order] + 1,
                  out=a_ptr[1:])
        unit_at = a_ptr[:-1]
        term = np.ones(a_ptr[-1], dtype=bool)
        term[unit_at] = False
        # dep_col ascends, so grouping by place keeps rows ascending.
        by_place = np.argsort(self.place[dep_col], kind="stable")
        a_cols = np.empty(a_ptr[-1], dtype=index)
        a_vals = np.empty(a_ptr[-1])
        a_cols[unit_at] = order
        a_vals[unit_at] = inv_diag[order]
        a_cols[term] = n + self.place[dep_row[by_place]]
        a_vals[term] = coeff[by_place]
        self.a = (a_ptr, a_cols, a_vals)
        self.b_ptr = np.zeros(2 * n + 1, dtype=index)
        self.b_ptr[:n + 1] = np.arange(n + 1)
        self.rows = np.empty(n + capacity, dtype=index)
        self.rows[:n] = np.arange(n)
        self.vals = np.empty(n + capacity)
        self.vals[:n] = 1.0
        self.used = n

    def product(self, lo, hi):
        """Columns ``order[lo:hi]`` before pruning: their rows of ``A``
        times ``B``, as CSR arrays."""
        a_ptr, a_cols, a_vals = self.a
        return sparse_product(a_ptr[lo:hi + 1], a_cols, a_vals, self.b_ptr,
                              self.rows, self.vals, self.n)

    def append(self, lo, hi, ptr, rows, vals):
        """Store the finished columns ``order[lo:hi]``, column ``c`` of
        them at ``rows[ptr[c]:ptr[c + 1]]``."""
        end = self.used + len(rows)
        if end > len(self.rows):
            size = max(end, len(self.rows) * 3 // 2)
            self.rows = _grown(self.rows, self.used, size)
            self.vals = _grown(self.vals, self.used, size)
        self.rows[self.used:end] = rows
        self.vals[self.used:end] = vals
        self.b_ptr[self.n + lo + 1:self.n + hi + 1] = self.used + ptr[1:]
        self.used = end

    def matrix(self):
        lengths, rows, vals = gather_ranges(
            self.b_ptr, self.n + self.place, self.rows, self.vals)
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        Z = sp.csc_matrix((vals, rows.astype(np.int32, copy=False), indptr),
                          shape=(self.n, self.n))
        Z.has_sorted_indices = True  # each column's rows come out sorted
        return Z


def _grown(array, used, size):
    """*array* moved to a buffer of *size*, its first *used* entries kept."""
    out = np.empty(size, dtype=array.dtype)
    out[:used] = array[:used]
    return out


def _prune(sums, ptr, delta, keep_threshold):
    """Algorithm 1's pruning mask over the columns of a level.

    *sums* holds the level's columns one after another, rows ascending,
    column ``c`` at ``ptr[c]:ptr[c + 1]``.  Columns with more than
    *keep_threshold* entries drop entries below ``delta * max``, but
    keep at least their *keep_threshold* largest: the entries above the
    ``k``-th largest value, then the lowest rows among the entries equal
    to it, until ``k = keep_threshold`` are kept.  Returns ``None`` when
    no column has more than *keep_threshold* entries.
    """
    sizes = np.diff(ptr)
    big = sizes > keep_threshold
    if not big.any():
        return None
    starts = ptr[:-1]
    owner = np.repeat(np.arange(len(sizes)), sizes)
    column_max = np.maximum.reduceat(sums, starts)
    keep = ~big[owner] | (sums >= delta * column_max[owner])
    short = np.flatnonzero(
        big & (np.add.reduceat(keep, starts, dtype=np.int64)
               < keep_threshold))
    if len(short) == 0:
        return keep
    # Proposition 1 makes every entry a sum of nonnegative terms; the
    # floor reproduces the paper's nnz(Z~) ~ n log n and keeps the
    # column error bounded on near-singular factors.  The short columns
    # are the rows of one table padded with -inf, each in row order.  A
    # column of a Cholesky factor's Z~ lies on its elimination-tree path
    # to the root, so no row of the table is wider than the level's
    # depth + 1.
    widths = sizes[short]
    at = concat_ranges(starts[short], widths)
    filled = np.arange(widths.max()) < widths[:, None]
    table = np.full(filled.shape, -np.inf)
    table[filled] = sums[at]
    kth = np.partition(table, -keep_threshold, axis=1)[:, [-keep_threshold]]
    above = table > kth
    tied = table == kth
    room = keep_threshold - np.count_nonzero(above, axis=1)
    tied &= np.cumsum(tied, axis=1) <= room[:, None]
    keep[at] = (above | tied)[filled]
    return keep
