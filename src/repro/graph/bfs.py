"""Breadth-first-search kernels.

The truncated trace reduction (Eqs. 12, 15, 20 of the paper) needs a
``beta``-layer BFS ball around each endpoint of every candidate edge.
Because this runs once per off-subgraph edge, the :class:`BallFinder`
keeps reusable "stamp" work arrays so a ball query allocates nothing of
size ``n``.

Three query families:

* :meth:`BallFinder.ball` — per-node Python BFS that also reports
  predecessors;
* :meth:`BallFinder.ball_nodes` — adaptive frontier expansion returning
  only the (sorted) node set of one ball (the incremental delta path);
* :func:`ball_sets` — every ball around many sources at once, one array
  operation per BFS level (the general-round scorer of Eq. 20).
"""

from __future__ import annotations

import numpy as np

from repro.utils.arrays import concat_ranges

__all__ = ["BallFinder", "bfs_tree_order"]


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
        reached = reached[np.diff(reached, prepend=-1) != 0]
        slots = np.searchsorted(visited, reached)
        fresh = visited[np.minimum(slots, len(visited) - 1)] != reached
        if not fresh.any():
            break
        frontier = reached[fresh]
        visited = np.insert(visited, slots[fresh], frontier)
    owner, nodes = np.divmod(visited, n)
    return np.searchsorted(owner, np.arange(len(sources) + 1)), nodes


def bfs_tree_order(indptr, neighbors, roots, n=None):
    """Full BFS over a graph from the given roots.

    Returns ``(order, pred)`` where *order* lists every reachable node in
    BFS order and ``pred`` maps each node to its BFS predecessor (``-1``
    for roots, ``-2`` for unreachable nodes).  Used to root spanning
    forests and for component sweeps.
    """
    if n is None:
        n = len(indptr) - 1
    pred = np.full(n, -2, dtype=np.int64)  # -2 == unvisited
    order = []
    for root in np.atleast_1d(np.asarray(roots, dtype=np.int64)):
        root = int(root)
        if pred[root] != -2:
            continue
        pred[root] = -1
        queue = [root]
        head = 0
        while head < len(queue):
            node = queue[head]
            head += 1
            order.append(node)
            for nbr in neighbors[indptr[node] : indptr[node + 1]]:
                nbr = int(nbr)
                if pred[nbr] == -2:
                    pred[nbr] = node
                    queue.append(nbr)
    return np.asarray(order, dtype=np.int64), pred
