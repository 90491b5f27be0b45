"""Exact references and per-item loop oracles for the production paths.

The exact references compute by dense or per-edge solves what
production only approximates or never computes: effective resistances
(Eq. 4), the trace of ``L_S^{-1} L_G`` that Eq. 5 bounds kappa by, and
the exact trace reduction of Eq. 11 (Sherman-Morrison, Eqs. 6-10).

Each loop function is the straightforward form of one equation —
one candidate edge (Eqs. 12, 15 and 20), one SPAI column (Algorithm 1)
or one pulse load (the source term u(t) of Eq. 21) at a time — kept
only to check the segmented array implementations in
``repro.core.tree_phase``, ``repro.core.ranking.ApproxRanker``,
``repro.linalg.spai`` and ``repro.powergrid.netlist`` against (Eq. 12,
with exact solves, checks the ball truncation on its own).
:class:`OracleApproxRanker` plugs the Eq. 20 loop into the sparsifier
driver through the ranker's ``score_batch``, and
:func:`backward_euler_matrix` assembles Eq. 21's system matrix from its
definition for the transient solvers' check.

The shared set-up (Sec. 3.2) has its loops here too: components by
Python BFS, Kruskal over a disjoint-set union, per-node rooting, the
Euler-tour DFS and Tarjan's offline LCA.  ``repro.graph.components``
and ``repro.tree`` must match them bit for bit.

:class:`DictEvolvingSparsifier` is the incremental delta path on a dict
edge map and pair sets, re-sorting, re-rooting and re-walking the whole
graph every batch; :class:`OracleEvolvingSparsifier` runs it with the
DSU forest repair, the per-node touched region and the loop rooting and
LCA.  ``repro.incremental.evolving`` must match both bit for bit.

:class:`BallFinder` grows one BFS ball per call, the oracle of
``repro.graph.bfs``'s multi-source searches; :class:`PerPickMarker` and
:func:`pick_edges` mark similar edges one pick at a time, the oracle of
the batched marking walk (``repro.core.sparsifier._pick_edges``).
"""

from __future__ import annotations

import heapq
import math

import numpy as np
import scipy.sparse as sp

from repro.api.records import RunRecord
from repro.api.session import SparsifierSession
from repro.exceptions import (FactorizationError, IncrementalError,
                              NotATreeError)
from repro.graph.bfs import ball_union
from repro.graph.graph import Graph
from repro.incremental.evolving import EvolvingSparsifier
from repro.powergrid.mna import conductance_matrix
from repro.tree import rooted, spanning
from repro.tree.lca import batch_tree_resistances
from repro.tree.spanning import effective_weights
from repro.utils.arrays import concat_ranges
from repro.utils.timers import Timer
from repro.utils.validation import check_square_sparse


def effective_resistance(solve, p: int, q: int, n: int) -> float:
    """Eq. 4: ``R_S(p, q) = e_pq^T L_S^{-1} e_pq`` via one solve.

    *solve* applies ``L_S^{-1}`` (e.g. ``CholeskyFactor.solve``).
    """
    rhs = np.zeros(n)
    rhs[p] += 1.0
    rhs[q] -= 1.0
    x = solve(rhs)
    return float(x[p] - x[q])


def effective_resistances(solve, pairs, n: int) -> np.ndarray:
    """Effective resistance for each ``(p, q)`` pair (one solve each)."""
    out = np.empty(len(pairs))
    for k, (p, q) in enumerate(pairs):
        out[k] = effective_resistance(solve, int(p), int(q), n)
    return out


def trace_ratio_exact(L_G, L_S) -> float:
    """``Trace(L_S^{-1} L_G)`` by dense solve (small systems only).

    Eq. 5: ``kappa(L_G, L_S) <= Trace(L_S^{-1} L_G)``, the quantity
    Algorithm 2 drives down.
    """
    dense_g = L_G.toarray() if sp.issparse(L_G) else np.asarray(L_G)
    dense_s = L_S.toarray() if sp.issparse(L_S) else np.asarray(L_S)
    return float(np.trace(np.linalg.solve(dense_s, dense_g)))


def exact_trace_reduction(graph, solve, p: int, q: int, w_pq: float):
    """Eq. 11 for one candidate edge, via one solve with ``L_S``.

    Recovering ``(p, q)`` lowers ``Trace(L_S^{-1} L_G)`` by
    ``w_pq sum_(i,j) w_ij (e_ij^T L_S^{-1} e_pq)^2 / (1 + w_pq R_S(p, q))``.
    With ``x = L_S^{-1} e_pq`` the numerator sum is
    ``sum w_ij (x_i - x_j)^2`` and ``R_S(p, q) = x_p - x_q``.
    """
    n = graph.n
    rhs = np.zeros(n)
    rhs[p] += 1.0
    rhs[q] -= 1.0
    x = solve(rhs)
    diffs = x[graph.u] - x[graph.v]
    numerator = w_pq * float(np.sum(graph.w * diffs * diffs))
    resistance = float(x[p] - x[q])
    return numerator / (1.0 + w_pq * resistance)


def exact_trace_reduction_batch(graph, solve, edge_ids) -> np.ndarray:
    """Eq. 11 for a batch of candidate edge ids (one solve each)."""
    edge_ids = np.asarray(edge_ids, dtype=np.int64)
    out = np.empty(len(edge_ids))
    for k, edge in enumerate(edge_ids):
        out[k] = exact_trace_reduction(
            graph,
            solve,
            int(graph.u[edge]),
            int(graph.v[edge]),
            float(graph.w[edge]),
        )
    return out


class BallFinder:
    """Repeated beta-layer BFS ball queries over a fixed adjacency.

    One ball per call, by a Python loop over the frontier; the oracle of
    :func:`repro.graph.bfs.ball_sets` and :func:`repro.graph.bfs.ball_union`
    and the ball engine of the per-candidate loops below.  Reusable
    "stamp" work arrays keep a query from allocating anything of size
    ``n``.

    Parameters
    ----------
    indptr, neighbors:
        CSR adjacency of the graph to traverse.
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


def ball_pair_edge_sum(indptr, neighbors, edge_ids, weights, nodes_p,
                       in_q_stamp, clock, values):
    """``sum w_e (values[i] - values[j])^2`` over ball-to-ball edges.

    The edges of the CSR graph ``(indptr, neighbors, edge_ids)`` with
    one endpoint in *nodes_p* and the other stamped into the q-ball
    (``in_q_stamp[x] == clock``), each undirected edge counted once.
    """
    starts = indptr[nodes_p]
    lengths = indptr[nodes_p + 1] - starts
    flat = concat_ranges(starts, lengths)
    nbrs = neighbors[flat]
    mask = in_q_stamp[nbrs] == clock
    if not np.any(mask):
        return 0.0
    sources = np.repeat(nodes_p, lengths)[mask]
    nbrs = nbrs[mask]
    # Dedupe: when both orientations qualify the edge appears twice.
    unique_eids, first = np.unique(edge_ids[flat][mask], return_index=True)
    diffs = values[sources[first]] - values[nbrs[first]]
    return float(np.sum(weights[unique_eids] * diffs * diffs))


def truncated_trace_reduction_reference(graph, subgraph, solve, edge_ids,
                                        beta=5):
    """Eq. 12: the ball-truncated sum with *exact* solves.

    BFS balls are grown in the current subgraph ``S`` (current flows
    through ``S``, so high/low-potential nodes cluster around ``p`` /
    ``q`` within ``S``).
    """
    edge_ids = np.asarray(edge_ids, dtype=np.int64)
    n = graph.n
    sub_indptr, sub_nbr, _ = subgraph.adjacency()
    finder = BallFinder(sub_indptr, sub_nbr)
    g_indptr, g_nbr, g_eid = graph.adjacency()
    in_q_stamp = np.zeros(n, dtype=np.int64)
    out = np.empty(len(edge_ids))
    for k, edge in enumerate(edge_ids):
        p, q = int(graph.u[edge]), int(graph.v[edge])
        w_pq = float(graph.w[edge])
        rhs = np.zeros(n)
        rhs[p] += 1.0
        rhs[q] -= 1.0
        x = solve(rhs)
        resistance = float(x[p] - x[q])
        nodes_p, _, _ = finder.ball(p, beta)
        nodes_q, _, _ = finder.ball(q, beta)
        clock = k + 1
        in_q_stamp[nodes_q] = clock
        numerator = ball_pair_edge_sum(
            g_indptr, g_nbr, g_eid, graph.w, nodes_p, in_q_stamp, clock, x
        )
        out[k] = w_pq * numerator / (1.0 + w_pq * resistance)
    return out


def tree_truncated_trace_reduction(graph, forest, edge_ids, beta=5,
                                   resistances=None):
    """Eq. 15, one candidate at a time (potentials by Python BFS)."""
    edge_ids = np.asarray(edge_ids, dtype=np.int64)
    heads = graph.u[edge_ids]
    tails = graph.v[edge_ids]
    if resistances is None:
        resistances, _ = batch_tree_resistances(forest, heads, tails)
    tin, tout = forest.euler_intervals()
    depth = forest.depth
    tree_indptr, tree_nbr, tree_local_eid = forest.tree.adjacency()
    finder = BallFinder(tree_indptr, tree_nbr,
                        edge_ids=forest.edge_ids[tree_local_eid])
    g_indptr, g_nbr, g_eid = graph.adjacency()
    weights = graph.w
    v_dense = np.zeros(graph.n)
    in_q_stamp = np.zeros(graph.n, dtype=np.int64)
    out = np.empty(len(edge_ids))
    for k in range(len(edge_ids)):
        p, q = int(heads[k]), int(tails[k])
        w_pq = float(weights[edge_ids[k]])
        r_pq = float(resistances[k])
        clock = k + 1
        nodes_p, preds_p, eids_p = finder.ball(p, beta)
        nodes_q, preds_q, eids_q = finder.ball(q, beta)
        in_q_stamp[nodes_q] = clock
        v_dense[p] = r_pq
        _propagate(nodes_p, preds_p, eids_p, v_dense, weights, depth, tin,
                   tout, p, q, -1.0)
        v_dense[q] = 0.0
        _propagate(nodes_q, preds_q, eids_q, v_dense, weights, depth, tin,
                   tout, p, q, +1.0)
        numerator = ball_pair_edge_sum(
            g_indptr, g_nbr, g_eid, weights, nodes_p, in_q_stamp, clock,
            v_dense,
        )
        out[k] = w_pq * numerator / (1.0 + w_pq * r_pq)
    return out


def _propagate(nodes, preds, eids, v_dense, weights, depth, tin, tout, p, q,
               sign):
    """Eqs. 13-14 over one BFS ball, in visiting order."""
    tin_p, tin_q = tin[p], tin[q]
    for idx in range(1, len(nodes)):
        node = int(nodes[idx])
        pred = int(preds[idx])
        value = v_dense[pred]
        child = node if depth[node] > depth[pred] else pred
        lo, hi = tin[child], tout[child]
        if (lo <= tin_p < hi) != (lo <= tin_q < hi):
            value += sign / weights[eids[idx]]
        v_dense[node] = value


def approximate_trace_reduction(graph, subgraph, factor, Z, edge_ids,
                                beta=5):
    """Eq. 20, one candidate at a time (dense scatter of ``u``)."""
    edge_ids = np.asarray(edge_ids, dtype=np.int64)
    n = graph.n
    iperm = factor.iperm
    z_indptr = Z.indptr
    z_indices = Z.indices.astype(np.int64)
    z_data = Z.data
    sub_indptr, sub_nbr, _ = subgraph.adjacency()
    finder = BallFinder(sub_indptr, sub_nbr)
    g_indptr, g_nbr, g_eid = graph.adjacency()
    u_dense = np.zeros(n)
    s_dense = np.zeros(n)
    in_q_stamp = np.zeros(n, dtype=np.int64)
    out = np.empty(len(edge_ids))
    for k, edge in enumerate(edge_ids):
        p, q = int(graph.u[edge]), int(graph.v[edge])
        w_pq = float(graph.w[edge])
        clock = k + 1
        p_hat, q_hat = int(iperm[p]), int(iperm[q])
        rows_p = z_indices[z_indptr[p_hat]:z_indptr[p_hat + 1]]
        vals_p = z_data[z_indptr[p_hat]:z_indptr[p_hat + 1]]
        rows_q = z_indices[z_indptr[q_hat]:z_indptr[q_hat + 1]]
        vals_q = z_data[z_indptr[q_hat]:z_indptr[q_hat + 1]]
        u_dense[rows_p] += vals_p
        u_dense[rows_q] -= vals_q
        touched = np.unique(np.concatenate([rows_p, rows_q]))
        resistance = float(np.sum(u_dense[touched] ** 2))
        nodes_p, _, _ = finder.ball(p, beta)
        nodes_q, _, _ = finder.ball(q, beta)
        in_q_stamp[nodes_q] = clock
        ball_nodes = np.unique(np.concatenate([nodes_p, nodes_q]))
        cols = iperm[ball_nodes]
        starts = z_indptr[cols]
        lengths = z_indptr[cols + 1] - starts
        flat = concat_ranges(starts, lengths)
        col_of = np.repeat(np.arange(len(ball_nodes)), lengths)
        s_dense[ball_nodes] = np.bincount(
            col_of, weights=z_data[flat] * u_dense[z_indices[flat]],
            minlength=len(ball_nodes),
        )
        numerator = ball_pair_edge_sum(
            g_indptr, g_nbr, g_eid, graph.w, nodes_p, in_q_stamp, clock,
            s_dense,
        )
        out[k] = w_pq * numerator / (1.0 + w_pq * resistance)
        u_dense[rows_p] = 0.0
        u_dense[rows_q] = 0.0
    return out


class PerPickMarker:
    """Similarity marking one pick at a time (Algorithm 2, steps 8/20).

    Each pick grows the gamma-balls of its two endpoints in ``S`` with
    :meth:`BallFinder.ball` and marks the edges of ``G`` joining them:
    the oracle of ``SimilarityMarker.similar_edges`` and, through
    :func:`pick_edges`, of the batched picking walk.
    """

    def __init__(self, graph, gamma=2):
        self.graph = graph
        self.gamma = gamma
        self.marked = np.zeros(graph.edge_count, dtype=bool)
        self._finder = None
        self._stamp = np.zeros(graph.n, dtype=np.int64)
        self._clock = 0

    def attach_subgraph(self, subgraph):
        indptr, nbr, _ = subgraph.adjacency()
        self._finder = BallFinder(indptr, nbr)

    def similar_edges(self, p, q):
        """Sorted ids of the edges joining ``ball(p)`` to ``ball(q)``."""
        nodes_p, _, _ = self._finder.ball(p, self.gamma)
        nodes_q, _, _ = self._finder.ball(q, self.gamma)
        self._clock += 1
        self._stamp[nodes_q] = self._clock
        g_indptr, g_nbr, g_eid = self.graph.adjacency()
        starts = g_indptr[nodes_p]
        lengths = g_indptr[nodes_p + 1] - starts
        flat = concat_ranges(starts, lengths)
        return np.unique(g_eid[flat][self._stamp[g_nbr[flat]] == self._clock])

    def mark_similar(self, p, q):
        """Mark the similar edges of the pick ``(p, q)``; count new marks."""
        hits = self.similar_edges(p, q)
        newly = int(np.count_nonzero(~self.marked[hits]))
        self.marked[hits] = True
        return newly


def pick_edges(ranked, marker, per_round, use_similarity):
    """Algorithm 2's picking walk, marking after every pick.

    *marker* is a :class:`PerPickMarker`; returns the picks and their
    scores in walk order, as ``repro.core.sparsifier._pick_edges`` does.
    """
    chosen, gains = [], []
    graph = marker.graph
    for edge, score in ranked:
        if score <= 0.0:
            continue
        edge = int(edge)
        if marker.marked[edge]:
            continue
        chosen.append(edge)
        gains.append(score)
        if use_similarity:
            marker.mark_similar(int(graph.u[edge]), int(graph.v[edge]))
        else:
            marker.marked[edge] = True
        if len(chosen) >= per_round:
            break
    return chosen, gains


def sparse_approximate_inverse(L, delta=0.1, keep_threshold=None):
    """Algorithm 1, one column at a time from ``j = n - 1`` down."""
    check_square_sparse("L", L)
    if not (0.0 <= delta < 1.0):
        raise ValueError(f"delta must be in [0, 1), got {delta}")
    L = sp.csc_matrix(L)
    if not L.has_sorted_indices:
        L.sort_indices()
    n = L.shape[0]
    if keep_threshold is None:
        keep_threshold = max(1, int(np.ceil(np.log(max(n, 2)))))
    indptr, indices, data = L.indptr, L.indices, L.data
    col_idx: list = [None] * n
    col_val: list = [None] * n
    one = np.ones(1, dtype=np.float64)
    for j in range(n - 1, -1, -1):
        start, stop = indptr[j], indptr[j + 1]
        if start == stop or indices[start] != j:
            raise FactorizationError(f"missing diagonal in column {j}")
        diag = data[start]
        if diag <= 0:
            raise FactorizationError(f"nonpositive diagonal at column {j}")
        inv_diag = 1.0 / diag
        parts_idx = [np.array([j], dtype=np.int64)]
        parts_val = [one * inv_diag]
        coeffs = -data[start + 1:stop] * inv_diag
        for i, coeff in zip(indices[start + 1:stop], coeffs):
            if coeff == 0.0:
                continue
            parts_idx.append(col_idx[i])
            parts_val.append(col_val[i] * coeff)
        uniq, inverse = np.unique(np.concatenate(parts_idx),
                                  return_inverse=True)
        sums = np.bincount(inverse, weights=np.concatenate(parts_val))
        if len(uniq) > keep_threshold:
            keep = sums >= delta * sums.max()
            if np.count_nonzero(keep) < keep_threshold:
                # The k largest; among ties at the k-th, the lowest rows.
                top = np.argsort(-sums, kind="stable")[:keep_threshold]
                keep = np.zeros(len(sums), dtype=bool)
                keep[top] = True
            uniq = uniq[keep]
            sums = sums[keep]
        col_idx[j] = uniq
        col_val[j] = sums
    lengths = np.asarray([len(col_idx[j]) for j in range(n)], dtype=np.int64)
    out_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=out_indptr[1:])
    out_indices = np.concatenate(col_idx) if n else np.empty(0, dtype=np.int64)
    out_data = np.concatenate(col_val) if n else np.empty(0)
    Z = sp.csc_matrix((out_data, out_indices.astype(np.int32), out_indptr),
                      shape=(n, n))
    Z.has_sorted_indices = True
    return Z


class OracleApproxRanker:
    """:class:`~repro.core.ranking.ApproxRanker` on the Eq. 20 loop."""

    def __init__(self, graph, subgraph, factor, Z, beta=5):
        self.args = (graph, subgraph, factor, Z)
        self.beta = beta

    def reuse_joins(self, joins, edge_ids):
        """The loop grows every ball anew; the store is left alone."""

    def score_bounds(self, edge_ids):
        """No bound: the sparsifier scores every candidate."""
        return np.full(len(edge_ids), np.inf)

    def score_batch(self, edge_ids):
        return approximate_trace_reduction(*self.args, edge_ids,
                                           beta=self.beta)


def backward_euler_matrix(netlist, step):
    """Eq. 21's system matrix ``G + C/h`` for a backward-Euler step of
    size *step*, assembled from its definition."""
    G = conductance_matrix(netlist, fmt="csc")
    return (G + sp.diags(netlist.capacitance / step)).tocsc()


def pulse_value(pattern, t):
    """One trapezoidal pulse train at scalar time *t*, in Python floats."""
    if t < pattern.delay:
        return 0.0
    local = (t - pattern.delay) % pattern.period
    top_end = pattern.rise + pattern.width
    down_end = pattern.rise + pattern.width + pattern.fall
    if local < pattern.rise:
        return pattern.amplitude * local / pattern.rise
    if local < top_end:
        return pattern.amplitude
    if local < down_end:
        return pattern.amplitude * (down_end - local) / pattern.fall
    return 0.0


def source_vector(netlist, t):
    """MNA right-hand side ``u(t)``, adding one load current at a time."""
    u = netlist.pad_conductance * netlist.rail_voltage
    for load in netlist.loads:
        u[load.node] += load.sign * pulse_value(load.pattern, t)
    return u


# ----------------------------------------------------------------------
# The shared set-up: components, spanning forests, rooting and LCAs.
# ----------------------------------------------------------------------
class DisjointSetUnion:
    """Array-backed DSU over ``0..n-1`` (path compression, union by rank)."""

    def __init__(self, n: int) -> None:
        self.parent = np.arange(n, dtype=np.int64)
        self.rank = np.zeros(n, dtype=np.int8)

    def find(self, x: int) -> int:
        """Representative of x's set (iterative, with path compression)."""
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return int(root)

    def union(self, x: int, y: int) -> bool:
        """Merge the sets of *x* and *y*; returns False if already merged."""
        root_x, root_y = self.find(x), self.find(y)
        if root_x == root_y:
            return False
        rank = self.rank
        if rank[root_x] < rank[root_y]:
            root_x, root_y = root_y, root_x
        self.parent[root_y] = root_x
        if rank[root_x] == rank[root_y]:
            rank[root_x] += 1
        return True

    def connected(self, x: int, y: int) -> bool:
        """True when *x* and *y* are in the same set."""
        return self.find(x) == self.find(y)

    def component_count(self) -> int:
        """Number of disjoint sets."""
        return int(np.sum(self.parent == np.arange(len(self.parent))))


def connected_components(graph):
    """``(count, labels)`` by one Python BFS per component."""
    indptr, nbr, _ = graph.adjacency()
    labels = np.full(graph.n, -1, dtype=np.int64)
    count = 0
    for start in range(graph.n):
        if labels[start] != -1:
            continue
        labels[start] = count
        queue = [start]
        head = 0
        while head < len(queue):
            node = queue[head]
            head += 1
            for neighbor in nbr[indptr[node]:indptr[node + 1]]:
                neighbor = int(neighbor)
                if labels[neighbor] == -1:
                    labels[neighbor] = count
                    queue.append(neighbor)
        count += 1
    return count, labels


def component_roots(labels):
    """Smallest node id of each component."""
    count = int(labels.max()) + 1 if len(labels) else 0
    roots = np.full(count, -1, dtype=np.int64)
    for node, label in enumerate(labels):
        if roots[label] == -1:
            roots[label] = node
    return roots


def bfs_tree_order(indptr, neighbors, roots, n=None):
    """One queue per root: ``(order, pred)``, ``pred`` ``-2`` if unreached."""
    if n is None:
        n = len(indptr) - 1
    pred = np.full(n, -2, dtype=np.int64)
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
            for nbr in neighbors[indptr[node]:indptr[node + 1]]:
                nbr = int(nbr)
                if pred[nbr] == -2:
                    pred[nbr] = node
                    queue.append(nbr)
    return np.asarray(order, dtype=np.int64), pred


def maximum_spanning_forest(graph, key=None):
    """Kruskal over a DSU, edges by descending key then ascending id."""
    if key is None:
        key = graph.w
    key = np.asarray(key, dtype=np.float64)
    order = np.argsort(-key, kind="stable")
    dsu = DisjointSetUnion(graph.n)
    picked = []
    u, v = graph.u, graph.v
    for edge in order:
        if dsu.union(int(u[edge]), int(v[edge])):
            picked.append(int(edge))
    return np.sort(np.asarray(picked, dtype=np.int64))


def mewst(graph):
    """Kruskal on the feGRASS effective weights."""
    return maximum_spanning_forest(graph, key=effective_weights(graph))


def bfs_spanning_forest(graph):
    """BFS forest from each component's smallest node, edge by edge."""
    _, labels = connected_components(graph)
    indptr, nbr, _ = graph.adjacency()
    order, pred = bfs_tree_order(indptr, nbr, component_roots(labels),
                                 n=graph.n)
    lookup = graph.edge_lookup()
    picked = []
    for node in order:
        parent = pred[node]
        if parent < 0:
            continue
        a, b = sorted((int(parent), int(node)))
        picked.append(lookup[(a, b)])
    return np.sort(np.asarray(picked, dtype=np.int64))


class RootedForest(rooted.RootedForest):
    """:class:`repro.tree.RootedForest`, rooted one node at a time.

    Has every field but ``ancestors``; pair it with
    :func:`tarjan_offline_lca` / :func:`tree_resistances`.
    """

    def __init__(self, graph, tree_edge_ids, validate_spanning=True):
        tree_edge_ids = np.sort(np.asarray(tree_edge_ids, dtype=np.int64))
        self.graph = graph
        self.edge_ids = tree_edge_ids
        self.tree = graph.subgraph(tree_edge_ids)
        count, labels = connected_components(self.tree)
        if len(tree_edge_ids) != graph.n - count:
            raise NotATreeError("not a spanning forest")
        if validate_spanning and count != connected_components(graph)[0]:
            raise NotATreeError("the forest does not span every component")
        self.component_count = count
        self.component_labels = labels
        self.roots = component_roots(labels)
        indptr, nbr, _ = self.tree.adjacency()
        order, pred = bfs_tree_order(indptr, nbr, self.roots, n=graph.n)
        self.parent = pred
        local_lookup = self.tree.edge_lookup()
        parent_edge = np.full(graph.n, -1, dtype=np.int64)
        depth = np.zeros(graph.n, dtype=np.int64)
        rdist = np.zeros(graph.n, dtype=np.float64)
        for node in order:
            par = pred[node]
            if par < 0:
                continue
            a, b = sorted((int(par), int(node)))
            global_id = tree_edge_ids[local_lookup[(a, b)]]
            parent_edge[node] = global_id
            depth[node] = depth[par] + 1
            rdist[node] = rdist[par] + 1.0 / graph.w[global_id]
        self.parent_edge = parent_edge
        self.depth = depth
        self.rdist = rdist
        self._tin = None
        self._tout = None

    def euler_intervals(self):
        """``(tin, tout)`` from an explicit-stack DFS."""
        if self._tin is None:
            n = self.graph.n
            indptr, nbr, _ = self.tree.adjacency()
            tin = np.empty(n, dtype=np.int64)
            tout = np.empty(n, dtype=np.int64)
            parent = self.parent
            clock = 0
            stack_node = np.empty(n, dtype=np.int64)
            stack_cursor = np.empty(n, dtype=np.int64)
            for root in self.roots:
                top = 0
                stack_node[0] = root
                stack_cursor[0] = indptr[root]
                tin[root] = clock
                clock += 1
                while top >= 0:
                    node = stack_node[top]
                    cursor = stack_cursor[top]
                    if cursor < indptr[node + 1]:
                        stack_cursor[top] = cursor + 1
                        child = int(nbr[cursor])
                        if child == parent[node]:
                            continue
                        tin[child] = clock
                        clock += 1
                        top += 1
                        stack_node[top] = child
                        stack_cursor[top] = indptr[child]
                    else:
                        tout[node] = clock
                        top -= 1
            self._tin = tin
            self._tout = tout
        return self._tin, self._tout


def tarjan_offline_lca(forest, qu, qv):
    """Tarjan's offline LCA: one DFS plus DSU finds over all queries."""
    qu = np.asarray(qu, dtype=np.int64)
    qv = np.asarray(qv, dtype=np.int64)
    if qu.shape != qv.shape:
        raise ValueError("query arrays must have the same shape")
    n = forest.n
    n_queries = len(qu)
    if n_queries == 0:
        return np.empty(0, dtype=np.int64)
    labels = forest.component_labels
    if np.any(labels[qu] != labels[qv]):
        raise NotATreeError("an LCA query spans two components")

    # Bucket queries by endpoint (each query hangs off both endpoints).
    heads = np.concatenate([qu, qv])
    others = np.concatenate([qv, qu])
    qids = np.concatenate([np.arange(n_queries), np.arange(n_queries)])
    order = np.argsort(heads, kind="stable")
    qother = others[order]
    qid_sorted = qids[order]
    counts = np.bincount(heads, minlength=n)
    qptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=qptr[1:])

    indptr, nbr, _ = forest.tree.adjacency()
    parent = forest.parent
    dsu = DisjointSetUnion(n)
    ancestor = np.arange(n, dtype=np.int64)
    black = np.zeros(n, dtype=bool)
    answers = np.full(n_queries, -1, dtype=np.int64)

    # Iterative DFS with an explicit (node, adjacency-cursor) stack.
    stack_node = np.empty(n, dtype=np.int64)
    stack_cursor = np.empty(n, dtype=np.int64)
    for root in forest.roots:
        top = 0
        stack_node[0] = root
        stack_cursor[0] = indptr[root]
        while top >= 0:
            node = stack_node[top]
            cursor = stack_cursor[top]
            if cursor < indptr[node + 1]:
                stack_cursor[top] = cursor + 1
                child = int(nbr[cursor])
                if child == parent[node]:
                    continue
                top += 1
                stack_node[top] = child
                stack_cursor[top] = indptr[child]
            else:
                # All children of *node* are finished: color it black,
                # answer its pending queries, then merge into its parent.
                top -= 1
                black[node] = True
                for k in range(qptr[node], qptr[node + 1]):
                    other = int(qother[k])
                    if black[other]:
                        answers[qid_sorted[k]] = ancestor[dsu.find(other)]
                par = int(parent[node])
                if par >= 0:
                    dsu.union(par, node)
                    ancestor[dsu.find(par)] = par
    return answers


def tree_resistances(forest, qu, qv):
    """``(resistances, lcas)`` through :func:`tarjan_offline_lca`."""
    lcas = tarjan_offline_lca(forest, qu, qv)
    rdist = forest.rdist
    qu = np.asarray(qu, dtype=np.int64)
    qv = np.asarray(qv, dtype=np.int64)
    return rdist[qu] + rdist[qv] - 2.0 * rdist[lcas], lcas


def touched_region(graphs, touched, beta):
    """Nodes within *beta* hops of a touched node in any of *graphs*.

    One :meth:`BallFinder.ball` per touched node and graph; returns the
    sorted node ids of the union.
    """
    region: set = set()
    for graph in graphs:
        indptr, nbr, _ = graph.adjacency()
        finder = BallFinder(indptr, nbr)
        for node in touched:
            region.update(finder.ball(int(node), beta)[0].tolist())
    return np.asarray(sorted(region), dtype=np.int64)


class DictEvolvingSparsifier(EvolvingSparsifier):
    """The delta path on a dict edge map and ``(u, v)`` pair sets.

    The reference of :class:`repro.incremental.EvolvingSparsifier`'s
    array path.  Every batch re-sorts the edge map into a new graph,
    re-roots the forest, runs the forest repair's spanning-forest
    search and builds the kept subgraph's adjacency in a Python loop.
    Every entry but its timings, the forest, the kept set and the drift
    estimate must equal the array path's after every batch.
    """

    forest_class = rooted.RootedForest
    tree_resistances = staticmethod(batch_tree_resistances)

    def __init__(self, graph, *args, **kwargs):
        self.n = graph.n
        self._edges = {
            (int(u), int(v)): float(w)
            for u, v, w in zip(graph.u, graph.v, graph.w)
        }
        super().__init__(self._materialize(), *args, **kwargs)

    @property
    def sparsifier(self):
        return self.graph.subgraph(self._edge_ids(self._kept))

    @property
    def forest_edges(self):
        return tuple(sorted(self._tree))

    @property
    def kept_edges(self):
        return tuple(sorted(self._kept))

    def summary(self):
        return {**super().summary(), "sparsifier_edges": len(self._kept),
                "forest_edges": len(self._tree)}

    def _materialize(self):
        return Graph.from_edges(
            self.n,
            [(u, v, w) for (u, v), w in sorted(self._edges.items())],
        )

    def _edge_ids(self, pairs):
        graph = self.graph
        pairs = np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2)
        keys = graph.u * self.n + graph.v
        wanted = pairs[:, 0] * self.n + pairs[:, 1]
        return np.sort(np.searchsorted(keys, wanted))

    def _full_build(self):
        session = SparsifierSession(
            self.graph, self.label,
            persistent=self._persistent, cache_dir=self._cache_dir,
        )
        result = session.sparsify(self.method, self.config)
        record = RunRecord.from_result(
            result, method=self.method, label=self.label
        )
        u, v = self.graph.u, self.graph.v
        self._kept = {
            (int(u[e]), int(v[e])) for e in np.nonzero(result.edge_mask)[0]
        }
        self._tree = {
            (int(u[e]), int(v[e])) for e in result.tree_edge_ids
        }
        self._offtree_target = len(self._kept) - len(self._tree)
        self._log_drift = 0.0
        return record

    def rebuild(self):
        timer = Timer()
        with timer:
            record = self._full_build()
        self.base_record = record
        self.record.append({
            "inserted": 0,
            "deleted": 0,
            "touched_nodes": 0,
            "reranked_edges": 0,
            "forest_replacements": 0,
            "kept_added": 0,
            "kept_dropped": 0,
            "graph_edges": self.graph.edge_count,
            "sparsifier_edges": len(self._kept),
            "drift_estimate": self.drift_estimate,
            "rebuild": True,
            "seconds": timer.elapsed,
        })
        return record

    def _apply(self, eb):
        self._check_batch(eb)
        deleted_kept = [
            (pair, self._edges[pair])
            for pair in eb.deletes if pair in self._kept
        ]
        tree_deleted = any(pair in self._tree for pair in eb.deletes)
        for pair in eb.deletes:
            del self._edges[pair]
            self._kept.discard(pair)
            self._tree.discard(pair)
        for u, v, w in eb.inserts:
            self._edges[(u, v)] = w
        self.graph = self._materialize()

        touched = np.asarray(eb.touched_nodes, dtype=np.int64)
        region = self._touched_region(touched)
        replacements = self._repair_forest(region, tree_deleted)
        inserted_pairs = {(u, v) for u, v, _ in eb.inserts}
        reranked, added, dropped, displaced, scores = self._rerank(
            region, inserted_pairs
        )
        self._accumulate_drift(eb, deleted_kept, dropped, scores)

        drift_at_batch = self.drift_estimate
        rebuilt = False
        if drift_at_batch > self.drift_budget:
            self.base_record = self._full_build()
            rebuilt = True
        return {
            "inserted": len(eb.inserts),
            "deleted": len(eb.deletes),
            "touched_nodes": len(region),
            "reranked_edges": reranked,
            "forest_replacements": replacements,
            "kept_added": len(added),
            "kept_dropped": len(dropped) + len(displaced),
            "graph_edges": self.graph.edge_count,
            "sparsifier_edges": len(self._kept),
            "drift_estimate": drift_at_batch,
            "rebuild": rebuilt,
        }

    def _check_batch(self, eb):
        for u, v, _ in eb.inserts:
            if not (0 <= u and v < self.n):
                raise IncrementalError(
                    f"edge ({u}, {v}) out of range for n={self.n}"
                )
        for pair in eb.deletes:
            if pair not in self._edges:
                raise IncrementalError(f"cannot delete absent edge {pair}")
        deleted = set(eb.deletes)
        for u, v, _ in eb.inserts:
            if (u, v) in self._edges and (u, v) not in deleted:
                raise IncrementalError(
                    f"edge ({u}, {v}) already exists; delete it first to "
                    "re-weight"
                )

    def _touched_region(self, touched):
        indptr, neighbors, _ = self.graph.adjacency()
        return np.flatnonzero(
            ball_union(indptr, neighbors, touched, self.locality_beta))

    def _repair_forest(self, region, tree_deleted):
        graph = self.graph
        forest = self._edge_ids(self._tree)
        in_forest = np.zeros(graph.edge_count, dtype=bool)
        in_forest[forest] = True
        local = np.isin(graph.u, region) | np.isin(graph.v, region)
        by_key = np.argsort(-effective_weights(graph), kind="stable")
        by_key = by_key[~in_forest[by_key]]
        ranked = [forest, by_key[local[by_key]]]
        if tree_deleted:
            ranked.append(by_key[~local[by_key]])
        order = np.concatenate(ranked)
        picked = order[spanning.maximum_spanning_forest(
            graph.subgraph(order), key=-np.arange(len(order), dtype=float)
        )]
        fresh = picked[~in_forest[picked]]
        self._tree.update(zip(graph.u[fresh].tolist(),
                              graph.v[fresh].tolist()))
        self._kept.update(self._tree)
        return len(fresh)

    def _rerank(self, region, inserted_pairs):
        if len(region) == 0:
            return 0, [], [], [], {}
        graph = self.graph
        forest = self.forest_class(graph, self._edge_ids(self._tree))
        self._forest = forest
        u_arr, v_arr, w_arr = graph.u, graph.v, graph.w
        tree_mask = np.zeros(graph.edge_count, dtype=bool)
        tree_mask[forest.edge_ids] = True
        local = np.nonzero(
            (np.isin(u_arr, region) | np.isin(v_arr, region)) & ~tree_mask
        )[0]
        if len(local) == 0:
            return 0, [], [], [], {}
        resist, _ = self.tree_resistances(
            forest, u_arr[local], v_arr[local]
        )
        scores = {
            (int(u_arr[e]), int(v_arr[e])): float(w_arr[e] * resist[k])
            for k, e in enumerate(local)
        }

        added, dropped = [], []
        offtree = len(self._kept) - len(self._tree)
        if offtree < self._offtree_target:
            candidates = sorted(
                (p for p in scores if p not in self._kept),
                key=lambda p: (-scores[p], p),
            )
            for pair in candidates[: self._offtree_target - offtree]:
                self._kept.add(pair)
                added.append(pair)
        elif offtree > self._offtree_target:
            droppable = sorted(
                (p for p in scores
                 if p in self._kept and p not in self._tree),
                key=lambda p: (scores[p], p),
            )
            for pair in droppable[: offtree - self._offtree_target]:
                self._kept.discard(pair)
                dropped.append(pair)
        displaced = []
        kept_local = sorted(
            (p for p in scores if p in self._kept and p not in self._tree),
            key=lambda p: (scores[p], p),
        )
        incoming = sorted(
            (p for p in inserted_pairs
             if p in scores and p not in self._kept),
            key=lambda p: (-scores[p], p),
        )
        for worst, best in zip(kept_local, incoming):
            if scores[best] <= scores[worst]:
                break
            self._kept.discard(worst)
            self._kept.add(best)
            displaced.append(worst)
            added.append(best)
        return len(local), added, dropped, displaced, scores

    def _accumulate_drift(self, eb, deleted_kept, dropped, scores):
        forest = getattr(self, "_forest", None)
        inserted_pairs = {(u, v) for u, v, _ in eb.inserts}
        charges = []
        for u, v, w in eb.inserts:
            if (u, v) not in self._kept:
                charges.append((u, v, w, scores.get((u, v))))
        for u, v in dropped:
            if (u, v) in inserted_pairs:
                continue
            charges.append((u, v, self._edges[(u, v)], scores[(u, v)]))
        for (u, v), w in deleted_kept:
            charges.append((u, v, w, None))
        if not charges:
            return
        adjacency = self._kept_adjacency()
        for u, v, w, score in charges:
            leverage = score
            if leverage is None:
                leverage = self._tree_leverage(forest, u, v, w)
            detour = dict_detour_resistance(adjacency, u, v)
            if detour is not None:
                leverage = (
                    w * detour if leverage is None
                    else min(leverage, w * detour)
                )
            if leverage is None:
                self._log_drift = math.inf
                return
            self._log_drift += math.log1p(leverage)

    def _kept_adjacency(self):
        adjacency: dict = {}
        for (a, b), w in self._edges.items():
            if (a, b) not in self._kept:
                continue
            adjacency.setdefault(a, []).append((b, 1.0 / w))
            adjacency.setdefault(b, []).append((a, 1.0 / w))
        return adjacency

    def _tree_leverage(self, forest, u, v, w):
        if forest is None or forest.graph is not self.graph:
            forest = self.forest_class(self.graph,
                                       self._edge_ids(self._tree))
            self._forest = forest
        if forest.component_labels[u] != forest.component_labels[v]:
            return None
        resist, _ = self.tree_resistances(
            forest, np.asarray([u]), np.asarray([v])
        )
        return float(w * resist[0])


def dict_detour_resistance(adjacency, u, v):
    """Dijkstra over a dict adjacency of ``(neighbor, 1/w)`` lists:
    the resistance of the best u-v path, or None without one."""
    dist = {u: 0.0}
    heap = [(0.0, u)]
    while heap:
        d, node = heapq.heappop(heap)
        if node == v:
            return d
        if d > dist.get(node, math.inf):
            continue
        for nbr, length in adjacency.get(node, ()):
            nd = d + length
            if nd < dist.get(nbr, math.inf):
                dist[nbr] = nd
                heapq.heappush(heap, (nd, nbr))
    return None


class OracleEvolvingSparsifier(DictEvolvingSparsifier):
    """The dict delta path with per-node balls, a DSU forest repair,
    per-node rooting and Tarjan's LCA."""

    forest_class = RootedForest
    tree_resistances = staticmethod(tree_resistances)

    def _touched_region(self, touched):
        return touched_region([self.graph], touched, self.locality_beta)

    def _edge_ids(self, pairs):
        lookup = self.graph.edge_lookup()
        return np.sort(np.asarray([lookup[pair] for pair in pairs],
                                  dtype=np.int64))

    def _repair_forest(self, region, tree_deleted):
        graph = self.graph
        dsu = DisjointSetUnion(self.n)
        for u, v in self._tree:
            dsu.union(u, v)
        eff = effective_weights(graph)
        u_arr, v_arr = graph.u, graph.v

        def _absorb(edge_ids):
            count = 0
            order = sorted(
                (int(e) for e in edge_ids),
                key=lambda e: (-eff[e], int(u_arr[e]), int(v_arr[e])),
            )
            for e in order:
                if dsu.union(int(u_arr[e]), int(v_arr[e])):
                    self._tree.add((int(u_arr[e]), int(v_arr[e])))
                    count += 1
            return count

        local_mask = np.isin(u_arr, region) | np.isin(v_arr, region)
        replacements = _absorb(np.nonzero(local_mask)[0])
        if tree_deleted:
            replacements += _absorb(np.nonzero(~local_mask)[0])
        self._kept.update(self._tree)
        return replacements
