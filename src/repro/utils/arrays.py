"""Array helpers shared across layers."""

from __future__ import annotations

import numpy as np

__all__ = ["concat_ranges", "unique_slots", "forest_depths"]


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
