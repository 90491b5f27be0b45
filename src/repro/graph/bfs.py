"""Breadth-first-search kernels.

The truncated trace reduction (Eqs. 12, 15, 20 of the paper) needs a
``beta``-layer BFS ball around each endpoint of every candidate edge.
Because this runs once per off-subgraph edge, the :class:`BallFinder`
keeps reusable "stamp" work arrays so a ball query allocates nothing of
size ``n``.

Four query families:

* :meth:`BallFinder.ball` — per-node Python BFS that also reports
  predecessors;
* :meth:`BallFinder.ball_nodes` — adaptive frontier expansion returning
  only the (sorted) node set of one ball (the incremental delta path);
* :func:`ball_sets` — every ball around many sources at once, one array
  operation per BFS level (the general-round scorer of Eq. 20);
* :func:`ball_union` — the union of the balls around many sources, as a
  node mask (which stored joins a new round must drop).

:func:`bfs_forest` is the untruncated search from every component root
at once that roots spanning forests.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order

from repro.utils.arrays import concat_ranges

__all__ = ["BallFinder", "bfs_forest"]


class BallFinder:
    """Repeated beta-layer BFS ball queries over a fixed adjacency.

    Parameters
    ----------
    indptr, neighbors:
        CSR adjacency of the graph to traverse (typically the *current
        subgraph* in Algorithm 2, or the spanning tree in the tree phase).
    edge_ids:
        Optional array parallel to *neighbors* giving the id of the edge
        connecting each (node, neighbor) pair; when provided, ball
        queries also report the predecessor edge of every visited node.
    """

    def __init__(self, indptr, neighbors, edge_ids=None) -> None:
        self.indptr = indptr
        self.neighbors = neighbors
        self.edge_ids = edge_ids
        n = len(indptr) - 1
        self._stamp = np.zeros(n, dtype=np.int64)
        self._clock = 0

    def ball(self, source: int, layers: int):
        """Nodes within *layers* hops of *source*.

        Returns
        -------
        nodes : numpy.ndarray
            Visited nodes in BFS order (``source`` first).
        pred : numpy.ndarray
            ``pred[k]`` is the BFS predecessor (a node id) of
            ``nodes[k]``, ``-1`` for the source.  Each predecessor
            appears in ``nodes`` before its successors, which the
            tree-phase voltage propagation (Eqs. 13-14) relies on.
        pred_eid : numpy.ndarray or None
            Ids of the predecessor edges (``-1`` for the source) when
            the finder was built with ``edge_ids``, else ``None``.
        """
        self._clock += 1
        clock = self._clock
        stamp = self._stamp
        indptr = self.indptr
        neighbors = self.neighbors
        edge_ids = self.edge_ids
        stamp[source] = clock
        visited = [int(source)]
        preds = [-1]
        pred_eids = [-1]
        frontier = [int(source)]
        for _ in range(layers):
            if not frontier:
                break
            next_frontier = []
            for node in frontier:
                start, stop = indptr[node], indptr[node + 1]
                for k in range(start, stop):
                    nbr = int(neighbors[k])
                    if stamp[nbr] != clock:
                        stamp[nbr] = clock
                        visited.append(nbr)
                        preds.append(node)
                        if edge_ids is not None:
                            pred_eids.append(int(edge_ids[k]))
                        next_frontier.append(nbr)
            frontier = next_frontier
        nodes = np.asarray(visited, dtype=np.int64)
        pred = np.asarray(preds, dtype=np.int64)
        if edge_ids is None:
            return nodes, pred, None
        return nodes, pred, np.asarray(pred_eids, dtype=np.int64)

    # Frontier size at which vectorized layer expansion overtakes the
    # plain Python loop (numpy per-call overhead vs per-node work).
    _VECTOR_FRONTIER = 32

    def ball_nodes(self, source: int, layers: int) -> np.ndarray:
        """Sorted node set within *layers* hops of *source* (no preds).

        Adaptive frontier expansion: small frontiers walk a plain
        Python loop (per-layer dispatch overhead would dominate), large
        ones expand the whole layer at once (one CSR gather, stamp
        filter and ``np.unique`` per layer).

        Parameters
        ----------
        source : int
            Ball center.
        layers : int
            BFS truncation depth (``beta`` in the paper).

        Returns
        -------
        numpy.ndarray
            Sorted ``int64`` array of the ball's nodes (``source``
            included).
        """
        self._clock += 1
        clock = self._clock
        stamp = self._stamp
        indptr = self.indptr
        neighbors = self.neighbors
        stamp[source] = clock
        frontier: list | np.ndarray = [int(source)]
        parts = [np.asarray(frontier, dtype=np.int64)]
        for _ in range(layers):
            if len(frontier) < self._VECTOR_FRONTIER:
                fresh_list = []
                for node in frontier:
                    for k in range(indptr[node], indptr[node + 1]):
                        nbr = int(neighbors[k])
                        if stamp[nbr] != clock:
                            stamp[nbr] = clock
                            fresh_list.append(nbr)
                if not fresh_list:
                    break
                frontier = fresh_list
                parts.append(np.asarray(fresh_list, dtype=np.int64))
            else:
                frontier = np.asarray(frontier, dtype=np.int64)
                starts = indptr[frontier]
                lengths = indptr[frontier + 1] - starts
                nbrs = neighbors[concat_ranges(starts, lengths)]
                fresh = np.unique(nbrs[stamp[nbrs] != clock])
                stamp[fresh] = clock
                if len(fresh) == 0:
                    break
                parts.append(fresh)
                frontier = fresh
        if len(parts) == 1:
            return parts[0]
        return np.sort(np.concatenate(parts))


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
        starts = indptr[node]
        lengths = indptr[node + 1] - starts
        flat = concat_ranges(starts, lengths)
        reached = np.sort(np.repeat(owner, lengths) * n + neighbors[flat])
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
