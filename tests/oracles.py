"""Per-item loop oracles for the batched production paths.

Each function here is the straightforward loop form of one equation —
one candidate edge (Eqs. 12, 15 and 20), one SPAI column (Algorithm 1)
or one pulse load (the source term u(t) of Eq. 21) at a time — kept
only to check the segmented array implementations in
``repro.core.tree_phase``, ``repro.core.ranking.ApproxRanker``,
``repro.linalg.spai`` and ``repro.powergrid.netlist`` against (Eq. 12,
with exact solves, checks the ball truncation on its own).  The oracle
rankers plug the loops into the sparsifier driver through the
:class:`~repro.core.ranking.EdgeRanker` protocol.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import FactorizationError
from repro.graph.bfs import BallFinder
from repro.tree.lca import batch_tree_resistances
from repro.utils.arrays import concat_ranges
from repro.utils.validation import check_square_sparse


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
                top = np.argpartition(-sums, keep_threshold - 1)
                keep = np.zeros(len(sums), dtype=bool)
                keep[top[:keep_threshold]] = True
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


class OracleTreePhaseRanker:
    """:class:`~repro.core.ranking.TreePhaseRanker` on the Eq. 15 loop."""

    def __init__(self, graph, forest, beta=5):
        self.graph = graph
        self.forest = forest
        self.beta = beta

    def prepare(self, edge_ids):
        """Nothing to warm."""

    def score_batch(self, edge_ids):
        return tree_truncated_trace_reduction(self.graph, self.forest,
                                              edge_ids, self.beta)


class OracleApproxRanker:
    """:class:`~repro.core.ranking.ApproxRanker` on the Eq. 20 loop."""

    def __init__(self, graph, subgraph, factor, Z, beta=5):
        self.args = (graph, subgraph, factor, Z)
        self.beta = beta

    def prepare(self, edge_ids):
        """Nothing to warm."""

    def score_batch(self, edge_ids):
        return approximate_trace_reduction(*self.args, edge_ids,
                                           beta=self.beta)


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
