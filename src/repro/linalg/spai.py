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
from repro.utils.arrays import concat_ranges, forest_depths, unique_slots
from repro.utils.validation import check_square_sparse

__all__ = ["sparse_approximate_inverse"]


def sparse_approximate_inverse(L, delta=0.1, keep_threshold=None):
    """Compute ``Z~ ~= L^{-1}`` for a lower-triangular Cholesky factor.

    Column ``j`` needs the finished columns ``z~_i`` for every
    ``L_ij != 0``; for a Cholesky factor those are ``j``'s ancestors in
    the elimination tree.  Columns are therefore built one dependency
    level at a time (:func:`dependency_levels`): the columns of a level
    are independent, so a level is one gather of the scaled dependency
    columns, one sort-based merge and one vectorized pruning pass.
    Within a column the terms are summed in the recurrence's order —
    the diagonal first, then ``z~_i`` by ascending ``i`` — and explicit
    zeros of ``L`` contribute nothing.

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
    live = off[coeff != 0.0]
    deps = (column[live], indices[live], coeff[coeff != 0.0])

    levels = dependency_levels(n, deps[0], deps[1])
    order = np.argsort(levels, kind="stable")
    bounds = np.searchsorted(levels[order],
                             np.arange(levels.max(initial=-1) + 2))
    built = _Columns(n, capacity=n + len(L.data))
    dep_ptr = np.searchsorted(deps[0], np.arange(n + 1))
    for level in range(len(bounds) - 1):
        cols = order[bounds[level]:bounds[level + 1]]
        keys, sums = _merge_terms(cols, inv_diag, dep_ptr, deps, built, n)
        owner = keys // n
        keep = _prune(sums, owner, len(cols), delta, keep_threshold)
        built.append(cols, keys[keep] % n, sums[keep],
                     np.bincount(owner[keep], minlength=len(cols)))
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
    out of order.

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


class _Columns:
    """Finished SPAI columns in a growable buffer, in build order."""

    def __init__(self, n, capacity):
        self.n = n
        self.start = np.zeros(n, dtype=np.int64)
        self.length = np.zeros(n, dtype=np.int64)
        self.rows = np.empty(capacity, dtype=np.int32)
        self.vals = np.empty(capacity)
        self.used = 0

    def append(self, cols, rows, vals, lengths):
        end = self.used + len(rows)
        if end > len(self.rows):
            size = max(end, 2 * len(self.rows))
            self.rows = np.concatenate(
                [self.rows[:self.used], np.empty(size - self.used, np.int32)])
            self.vals = np.concatenate(
                [self.vals[:self.used], np.empty(size - self.used)])
        self.rows[self.used:end] = rows
        self.vals[self.used:end] = vals
        self.start[cols] = self.used + np.cumsum(lengths) - lengths
        self.length[cols] = lengths
        self.used = end

    def gather(self, cols):
        """Rows, values and lengths of finished columns *cols*."""
        lengths = self.length[cols]
        flat = concat_ranges(self.start[cols], lengths)
        return self.rows[flat], self.vals[flat], lengths

    def matrix(self):
        rows, vals, lengths = self.gather(np.arange(self.n))
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        Z = sp.csc_matrix((vals, rows, indptr), shape=(self.n, self.n))
        Z.has_sorted_indices = True  # each column's rows come out sorted
        return Z


def _merge_terms(cols, inv_diag, dep_ptr, deps, built, n):
    """Sum the recurrence's terms of columns *cols* per row.

    Returns sorted ``local column * n + row`` keys and their sums, each
    accumulated in the recurrence's order: ``1 / L_jj`` at row ``j``
    first, then ``coeff * z~_i`` for the needed columns by ascending
    ``i``, each in its row order.
    """
    dep_col, dep_row, coeff = deps
    counts = dep_ptr[cols + 1] - dep_ptr[cols]
    dep = concat_ranges(dep_ptr[cols], counts)
    rows, vals, lengths = built.gather(dep_row[dep])
    local = np.repeat(np.repeat(np.arange(len(cols)), counts), lengths)
    vals = vals * np.repeat(coeff[dep], lengths)
    per_col = np.bincount(local, minlength=len(cols))
    # Each column's diagonal term goes in front of its gathered terms.
    diag_at = np.arange(len(cols)) + np.cumsum(per_col) - per_col
    term_at = np.arange(len(rows)) + local + 1
    keys = np.empty(len(cols) + len(rows), dtype=np.int64)
    terms = np.empty(len(keys))
    keys[diag_at] = np.arange(len(cols)) * n + cols
    terms[diag_at] = inv_diag[cols]
    keys[term_at] = local * n + rows
    terms[term_at] = vals
    keys, slot, _ = unique_slots(keys)
    return keys, np.bincount(slot, weights=terms)


def _prune(sums, owner, count, delta, keep_threshold):
    """Algorithm 1's pruning mask over the merged entries of a level.

    Columns with more than *keep_threshold* entries drop entries below
    ``delta * max``, but keep at least their *keep_threshold* largest:
    the entries above the ``k``-th largest value, then the lowest rows
    among the entries equal to it, until ``k = keep_threshold`` are
    kept.
    """
    sizes = np.bincount(owner, minlength=count)
    starts = np.cumsum(sizes) - sizes
    big = sizes > keep_threshold
    column_max = np.maximum.reduceat(sums, starts)
    keep = ~big[owner] | (sums >= delta * column_max[owner])
    short = np.flatnonzero(
        big & (np.bincount(owner[keep], minlength=count) < keep_threshold))
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
