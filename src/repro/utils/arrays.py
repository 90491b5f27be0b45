"""Array helpers shared across layers.

:func:`gather_ranges`, :func:`segment_dots` and :func:`sparse_product`
run scipy's compiled sparse kernels (``csr_row_index``; ``csr_matvec``;
``csr_matmat_maxnnz``, ``csr_matmat`` and ``csr_sort_indices``) on
plain arrays.  They live in scipy's private
``scipy.sparse._sparsetools``, which this is the one module to import
(``tools/check_imports.py`` fails on any other): the kernels check
nothing, so the helpers check every index they will read before the
call.  A scipy without these kernels fails at import; there is no
fallback path.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse._sparsetools import (
    csr_matmat,
    csr_matmat_maxnnz,
    csr_matvec,
    csr_row_index,
    csr_sort_indices,
)

__all__ = ["concat_ranges", "gather_ranges", "segment_dots",
           "sparse_product", "unique_slots", "forest_depths"]

#: Index dtypes the compiled kernels take without copying their inputs.
_INDEX_DTYPES = (np.dtype(np.int32), np.dtype(np.int64))


def concat_ranges(starts, lengths):
    """Concatenate integer ranges ``[starts[k], starts[k]+lengths[k])``.

    Equivalent to ``np.concatenate([np.arange(s, s+l) ...])`` but built
    from two cumsums, with no per-range Python overhead.

    Parameters
    ----------
    starts : array_like of int
        Range start offsets.
    lengths : array_like of int
        Range lengths (zero-length ranges are skipped).

    Returns
    -------
    numpy.ndarray
        The concatenated ranges as one ``int64`` array.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    positive = lengths > 0
    # Array methods rather than np.all/np.cumsum: this runs hundreds of
    # times per sparsifier round, mostly on short arrays.
    if not positive.all():
        # Non-positive lengths contribute nothing (empty CSR ranges).
        starts = starts[positive]
        lengths = lengths[positive]
    if len(lengths) == 0:
        # Covers empty input and all-zero lengths; bail out before any
        # cum[-1] indexing can see an empty cumsum.
        return np.empty(0, dtype=np.int64)
    cum = lengths.cumsum()
    out = np.ones(cum[-1], dtype=np.int64)
    out[0] = starts[0]
    if len(starts) > 1:
        out[cum[:-1]] = starts[1:] - (starts[:-1] + lengths[:-1] - 1)
    return out.cumsum()


def gather_ranges(indptr, rows, first, second=None):
    """Concatenated CSR ranges of one or two aligned arrays.

    For every ``r`` in *rows*, in order, copies
    ``first[indptr[r]:indptr[r + 1]]`` (and the same range of *second*):
    ``first[concat_ranges(indptr[rows], lengths)]``, but copied range by
    range in one compiled pass (scipy's ``csr_row_index``) instead of
    built from cumsums and then gathered.

    Parameters
    ----------
    indptr : numpy.ndarray
        ``int32`` or ``int64`` range offsets.
    rows : array_like of int
        Ranges to copy, each in ``[0, len(indptr) - 1)``; repeats and
        any order are fine.
    first : numpy.ndarray
        Array the ranges index; same dtype as *indptr*.
    second : numpy.ndarray, optional
        Array of any dtype aligned with *first* (same length).

    Returns
    -------
    lengths : numpy.ndarray
        Length of each range, in *indptr*'s dtype.
    firsts : numpy.ndarray
        The concatenated ranges of *first*.
    seconds : numpy.ndarray
        The same ranges of *second*; returned only when it is given.

    Raises
    ------
    TypeError
        When *indptr* is not ``int32``/``int64``, *first* differs from it
        in dtype (the kernel would copy both whole arrays), or *rows*
        are not integers.
    IndexError
        When a row lies outside ``[0, len(indptr) - 1)``.
    ValueError
        When *first* and *second* differ in length, or a requested range
        is reversed or reaches outside them.
    """
    indptr = np.asarray(indptr)
    if indptr.dtype not in _INDEX_DTYPES or first.dtype != indptr.dtype:
        raise TypeError(
            f"indptr and first must share an int32 or int64 dtype, got "
            f"{indptr.dtype} and {first.dtype}"
        )
    if second is not None and len(second) != len(first):
        raise ValueError(
            f"aligned arrays differ in length: {len(first)} and {len(second)}"
        )
    rows = np.asarray(rows)
    if len(rows) and rows.dtype.kind not in "iu":
        raise TypeError(f"rows must be integers, got {rows.dtype}")
    if len(rows) and (rows.min() < 0 or rows.max() >= len(indptr) - 1):
        raise IndexError(
            f"rows must lie in [0, {len(indptr) - 1}), got "
            f"{rows.min() if rows.min() < 0 else rows.max()}"
        )
    rows = rows.astype(indptr.dtype, copy=False)
    starts = indptr[rows]
    ends = indptr[rows + 1]
    lengths = ends - starts
    if len(rows) and (starts.min() < 0 or lengths.min() < 0
                      or ends.max() > len(first)):
        raise ValueError(
            f"a range of indptr is reversed or reaches outside the "
            f"{len(first)} entries"
        )
    total = int(lengths.sum())
    firsts = np.empty(total, dtype=first.dtype)
    if second is None:
        # The kernel copies two arrays; alias both to the one wanted.
        if total:
            csr_row_index(len(rows), rows, indptr, first, first, firsts,
                          firsts)
        return lengths, firsts
    seconds = np.empty(total, dtype=second.dtype)
    if total:
        csr_row_index(len(rows), rows, indptr, first, second, firsts,
                      seconds)
    return lengths, firsts, seconds


def segment_dots(indptr, indices, data, x):
    """``sum(data[j] * x[indices[j]])`` over each range of *indptr*.

    Segment ``i`` runs over ``j`` in ``indptr[i]:indptr[i + 1]``, adding
    its products in ascending ``j`` from ``0.0``: the bits of
    ``np.bincount(segment, weights=data[range] * x[indices[range]])``,
    in one compiled pass (scipy's ``csr_matvec``) instead of four.

    Parameters
    ----------
    indptr : numpy.ndarray
        ``int32`` or ``int64`` offsets into *indices* and *data*,
        non-decreasing; need not start at 0.
    indices : numpy.ndarray
        Positions into *x*, same dtype as *indptr*; those the segments
        read must lie in ``[0, len(x))``.
    data : numpy.ndarray
        ``float64`` coefficients aligned with *indices*.
    x : numpy.ndarray
        ``float64`` values.

    Returns
    -------
    numpy.ndarray
        One ``float64`` sum per segment.

    Raises
    ------
    TypeError
        On dtypes the kernel would have to convert.
    ValueError
        When *indptr* decreases or reaches outside *indices*.
    IndexError
        When a position the segments read lies outside *x*.
    """
    indptr = np.asarray(indptr)
    if indptr.dtype not in _INDEX_DTYPES or indices.dtype != indptr.dtype:
        raise TypeError(
            f"indptr and indices must share an int32 or int64 dtype, got "
            f"{indptr.dtype} and {indices.dtype}"
        )
    if data.dtype != np.float64 or x.dtype != np.float64:
        raise TypeError(f"data and x must be float64, got {data.dtype} "
                        f"and {x.dtype}")
    out = np.zeros(max(len(indptr) - 1, 0))
    if len(out) == 0:
        return out
    lo, hi = int(indptr[0]), int(indptr[-1])
    if (lo < 0 or hi > min(len(indices), len(data))
            or np.diff(indptr).min() < 0):
        raise ValueError(
            f"indptr must be non-decreasing within the {len(indices)} "
            f"entries"
        )
    read = indices[lo:hi]
    if hi > lo and (read.min() < 0 or read.max() >= len(x)):
        raise IndexError(f"indices must lie in [0, {len(x)})")
    csr_matvec(len(out), len(x), indptr, indices, data, x, out)
    return out


def sparse_product(a_indptr, a_indices, a_data, b_indptr, b_indices,
                   b_data, n_col):
    """Rows of ``A @ B`` for two CSR operands, columns ascending per row.

    Entry ``(i, k)`` of the product adds ``A[i, j] * B[j, k]`` from
    ``0.0``, over ``A``'s row ``i`` in storage order and, for each of
    its entries, over ``B``'s row ``j`` in storage order: scipy's SMMP
    kernels ``csr_matmat_maxnnz`` (the exact structural count) and
    ``csr_matmat`` (the sums), then ``csr_sort_indices``.  Every
    ``(i, k)`` some product reaches is an entry of the result, also
    where its sum is exactly ``0.0``: ``csr_matmat`` drops such sums,
    so when it returns fewer entries than the structural count, the
    pattern is formed again from all-ones operands (whose sums are
    counts, never zero) and the sums are placed into it, the dropped
    ones as stored ``0.0``.

    Parameters
    ----------
    a_indptr : numpy.ndarray
        ``int32`` or ``int64`` offsets of ``A``'s rows, non-decreasing;
        need not start at 0.
    a_indices : numpy.ndarray
        ``A``'s columns, the rows of ``B`` they read; same dtype as
        *a_indptr*.
    a_data : numpy.ndarray
        ``float64`` values aligned with *a_indices*.
    b_indptr, b_indices : numpy.ndarray
        ``B``'s row offsets and columns; same dtype as *a_indptr*.  Only
        the rows ``A`` reads need be valid ranges.
    b_data : numpy.ndarray
        ``float64`` values, as long as *b_indices*.
    n_col : int
        Column count of ``B``: every column ``A`` reaches lies below it.

    Returns
    -------
    indptr, indices, data : numpy.ndarray
        The product in CSR form, *indptr* from 0, in the operands' index
        dtype.

    Raises
    ------
    TypeError
        When the index arrays do not share one ``int32``/``int64`` dtype
        or the values are not ``float64``: the kernels would convert
        them, copying each whole array.
    IndexError
        When a column of ``A`` lies outside ``B``'s rows, or a column
        of a row of ``B`` that ``A`` reads lies outside ``[0, n_col)``.
    ValueError
        When an ``A`` range or a read ``B`` range is reversed or reaches
        outside its arrays, or a value array differs in length from its
        indices.
    """
    a_indptr = np.asarray(a_indptr)
    index = a_indptr.dtype
    if index not in _INDEX_DTYPES or any(
            arr.dtype != index for arr in (a_indices, b_indptr, b_indices)):
        raise TypeError(
            f"the index arrays must share an int32 or int64 dtype, got "
            f"{a_indptr.dtype}, {a_indices.dtype}, {b_indptr.dtype} and "
            f"{b_indices.dtype}"
        )
    if a_data.dtype != np.float64 or b_data.dtype != np.float64:
        raise TypeError(f"the values must be float64, got {a_data.dtype} "
                        f"and {b_data.dtype}")
    if len(a_data) != len(a_indices) or len(b_data) != len(b_indices):
        raise ValueError("each value array must be as long as its indices")
    n_row = len(a_indptr) - 1
    if n_row < 0:
        raise ValueError("a_indptr must hold at least one offset")
    lo, hi = int(a_indptr[0]), int(a_indptr[-1])
    if lo < 0 or hi > len(a_indices) or (
            n_row and np.diff(a_indptr).min() < 0):
        raise ValueError(
            f"a_indptr must be non-decreasing within the {len(a_indices)} "
            f"entries"
        )
    # The structural terms, column by column: gather_ranges raises on a
    # row of B outside its indptr and on a range outside b_indices.
    _, reached = gather_ranges(b_indptr, a_indices[lo:hi], b_indices)
    if len(reached) and (reached.min() < 0 or reached.max() >= n_col):
        raise IndexError(f"columns of B must lie in [0, {n_col})")
    size = csr_matmat_maxnnz(n_row, n_col, a_indptr, a_indices, b_indptr,
                             b_indices)
    indptr = np.empty(n_row + 1, dtype=index)
    indices = np.empty(size, dtype=index)
    data = np.empty(size)
    csr_matmat(n_row, n_col, a_indptr, a_indices, a_data, b_indptr,
               b_indices, b_data, indptr, indices, data)
    csr_sort_indices(n_row, indptr, indices, data)
    kept = int(indptr[-1])
    if kept == size:
        return indptr, indices, data
    # Some sums were exactly 0.0: place the kept ones into the pattern.
    pattern_ptr = np.empty(n_row + 1, dtype=index)
    pattern = np.empty(size, dtype=index)
    counts = np.empty(size)
    csr_matmat(n_row, n_col, a_indptr, a_indices, np.ones(len(a_data)),
               b_indptr, b_indices, np.ones(len(b_data)), pattern_ptr,
               pattern, counts)
    csr_sort_indices(n_row, pattern_ptr, pattern, counts)
    rows = np.arange(n_row, dtype=np.int64) * n_col
    keys = np.repeat(rows, np.diff(pattern_ptr)) + pattern
    sums = np.zeros(size)
    sums[np.searchsorted(keys, np.repeat(rows, np.diff(indptr))
                         + indices[:kept])] = data[:kept]
    return pattern_ptr, pattern, sums


def unique_slots(keys):
    """Sorted distinct values of an integer array, with where each went.

    ``np.unique(keys, return_index=True, return_inverse=True)`` on a
    stable sort, which runs in linear time on the concatenations of
    sorted runs the batched scorers build.

    Parameters
    ----------
    keys : numpy.ndarray
        One-dimensional integer array.

    Returns
    -------
    values : numpy.ndarray
        The distinct keys, ascending.
    slot : numpy.ndarray
        ``values[slot[k]] == keys[k]`` for every ``k``.
    first : numpy.ndarray
        Index of each distinct key's first occurrence in *keys*.
    """
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    fresh = np.empty(len(keys), dtype=bool)
    fresh[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    slot = np.empty(len(keys), dtype=np.int64)
    slot[order] = np.cumsum(fresh) - 1
    return ordered[fresh], slot, order[fresh]


def forest_depths(parent):
    """Depth of every node of a forest given by parent pointers.

    Pointer jumping: each pass adds the depth gathered at a node's
    current ancestor and then jumps to that ancestor's ancestor, so
    ``log2(height) + 1`` array passes settle every node.

    Parameters
    ----------
    parent : numpy.ndarray
        ``int64`` parent of each node, ``-1`` at roots.

    Returns
    -------
    depth : numpy.ndarray
        ``int64`` hop count from each node up to its root.
    ancestors : list of numpy.ndarray
        ``ancestors[k][x]`` is the ``2**k``-th ancestor of ``x``, or
        ``-1`` above its root; ``ancestors[0]`` is *parent* itself.
        The list ends before the first power of two that no node has,
        so every depth is below ``2**len(ancestors)``.
    """
    depth = (parent >= 0).astype(np.int64)
    ancestors = [parent]
    jump = parent.copy()
    active = np.flatnonzero(jump >= 0)
    while len(active):
        depth[active] += depth[jump[active]]
        jump[active] = jump[jump[active]]
        active = active[jump[active] >= 0]
        if len(active):
            ancestors.append(jump.copy())
    return depth, ancestors
