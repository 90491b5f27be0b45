"""Breadth-first-search kernels.

The approximate trace reduction (Eq. 20 of the paper) needs a
``beta``-layer BFS ball in the current subgraph around each endpoint of
every candidate edge, and similarity marking the same balls at radius
``gamma`` (the tree phase, Eq. 15, grows its balls along the tree
together with their potentials).  Both grow them for a whole block of
candidates at once, so the searches here run from many sources
together, one array operation per BFS level:

* :func:`ball_sets` — every ball around many sources (the scorer of
  Eq. 20 and similarity marking, through
  :func:`repro.core.ball_join.grown_joins`);
* :func:`ball_union` — the union of the balls around many sources, as a
  node mask (which stored joins a new round must drop; the incremental
  delta path runs the same levels over an edge list).

:func:`bfs_forest` is the untruncated search from every component root
at once that roots spanning forests.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order

from repro.utils.arrays import gather_ranges

__all__ = ["ball_sets", "ball_union", "bfs_forest"]


def ball_sets(indptr, neighbors, sources, layers: int):
    """Nodes within *layers* hops of each of many sources.

    A multi-source BFS over sorted ``source_index * n + node`` keys: each
    level gathers the frontier's neighbors for every source at once,
    drops the keys already visited, and merges the rest in.

    Parameters
    ----------
    indptr, neighbors : numpy.ndarray
        CSR adjacency of the graph to traverse.
    sources : array_like of int
        Ball centers (duplicates get their own, identical balls).
    layers : int
        BFS truncation depth (``beta`` in the paper).

    Returns
    -------
    ptr : numpy.ndarray
        ``int64`` offsets: the ball of ``sources[k]`` is
        ``nodes[ptr[k]:ptr[k + 1]]``.
    nodes : numpy.ndarray
        Ball members, sorted within each ball (centers included).
    """
    n = len(indptr) - 1
    sources = np.asarray(sources, dtype=np.int64)
    visited = np.arange(len(sources), dtype=np.int64) * n + sources
    frontier = visited
    for _ in range(layers):
        owner, node = np.divmod(frontier, n)
        lengths, reached = gather_ranges(indptr, node, neighbors)
        reached = np.sort(np.repeat(owner, lengths) * n + reached)
        slots = np.searchsorted(visited, reached)
        fresh = visited[np.minimum(slots, len(visited) - 1)] != reached
        fresh[1:] &= reached[1:] != reached[:-1]
        if not fresh.any():
            break
        frontier = reached[fresh]
        # np.insert(visited, slots[fresh], frontier), without its
        # per-call overhead: the k-th new key lands k places further on.
        at = slots[fresh] + np.arange(len(frontier))
        merged = np.empty(len(visited) + len(frontier), dtype=np.int64)
        merged[at] = frontier
        old = np.ones(len(merged), dtype=bool)
        old[at] = False
        merged[old] = visited
        visited = merged
    owner, nodes = np.divmod(visited, n)
    return np.searchsorted(owner, np.arange(len(sources) + 1)), nodes


def ball_union(indptr, neighbors, sources, layers: int) -> np.ndarray:
    """Mask of the nodes within *layers* hops of any of *sources*.

    One BFS from all sources at once: each level marks the neighbors
    of every marked node, in one pass over the adjacency.

    Parameters
    ----------
    indptr, neighbors : numpy.ndarray
        CSR adjacency of the graph to traverse.
    sources : array_like of int
        Start nodes.
    layers : int
        Hop bound; ``0`` (or less) marks the sources alone.

    Returns
    -------
    numpy.ndarray
        Boolean mask over the nodes.
    """
    n = len(indptr) - 1
    inside = np.zeros(n, dtype=bool)
    inside[np.asarray(sources, dtype=np.int64)] = True
    if layers < 1 or not inside.any():
        return inside
    rows = np.repeat(np.arange(n), np.diff(indptr))
    for _ in range(layers):
        inside[neighbors[inside[rows]]] = True
    return inside


def bfs_forest(indptr, neighbors, roots):
    """Breadth-first search from several roots in one pass.

    scipy's ``breadth_first_order`` runs from an extra node ``n`` whose
    row lists *roots*, in the given order.  The visiting order
    interleaves the roots' searches level by level, so it is sorted by
    hop distance from the nearest root.  With one root per component,
    each node gets the predecessor that a separate queue per root would
    give it: the shared queue, restricted to one component, is that
    component's own queue.

    Parameters
    ----------
    indptr, neighbors : numpy.ndarray
        CSR adjacency of the graph to traverse.
    roots : array_like of int
        Start nodes, searched in this order.

    Returns
    -------
    order : numpy.ndarray
        Every node reachable from *roots*, in visiting order.
    parent : numpy.ndarray
        BFS predecessor of each node: ``-1`` at roots and at nodes no
        root reaches.
    """
    n = len(indptr) - 1
    roots = np.asarray(roots, dtype=np.int64)
    rows = sp.csr_matrix(
        (np.ones(len(neighbors) + len(roots)),
         np.concatenate([neighbors, roots]),
         np.append(indptr, indptr[-1] + len(roots))),
        shape=(n + 1, n + 1),
    )
    order, pred = breadth_first_order(rows, n, directed=True)
    parent = pred[:n].astype(np.int64)
    parent[(parent < 0) | (parent == n)] = -1
    return order[1:].astype(np.int64), parent
