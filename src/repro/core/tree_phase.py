"""Tree-phase truncated trace reduction (Eqs. 13-15).

When the current subgraph is a spanning tree ``T``, no linear solves are
needed at all: the paper's physical model injects a unit current at
``p`` and extracts it at ``q``; the current flows only along the unique
tree path, so node potentials are piecewise constant off the path and
drop by ``1/w_e`` across each path edge.  Concretely:

* ``R_T(p, q)`` comes from one batched LCA query over all candidates
  (binary lifting, :func:`repro.tree.lca.batch_tree_resistances`);
* the potential of every node in the beta-ball around ``p`` (resp.
  ``q``) is propagated outward one BFS level at a time: crossing a path
  edge changes the potential by ``-1/w`` (resp. ``+1/w``), any other
  tree edge keeps it (Eqs. 13-14).  Where the balls overlap, the
  q-side potential is used;
* the truncated numerator is the usual restricted quadratic form over
  original-graph edges joining the two balls (Eq. 15).  Those joins are
  what every later round needs too while the balls stay the same, so
  a :class:`~repro.core.ball_join.JoinStore` passed in collects them
  to seed round 2.

The "is this tree edge on path(p, q)?" test uses Euler-tour subtree
intervals, so every step is an array operation over all (candidate,
node) entries of a block of candidates at once.
"""

from __future__ import annotations

import numpy as np

from repro.utils.arrays import gather_ranges
from repro.core.ball_join import LookupTable, ball_pair_edges, score_in_blocks
from repro.graph.graph import Graph
from repro.tree.lca import batch_tree_resistances
from repro.tree.rooted import RootedForest

__all__ = ["tree_truncated_trace_reduction"]


def tree_truncated_trace_reduction(
    graph: Graph, forest: RootedForest, edge_ids=None, beta: int = 5,
    joins=None,
):
    """Truncated trace reduction for off-tree edges (Eq. 15).

    Parameters
    ----------
    graph : Graph
        The original graph ``G``.
    forest : RootedForest
        Rooted spanning forest ``T`` (the initial subgraph).
    edge_ids : array_like of int, optional
        Candidate off-tree edge ids; defaults to every non-tree edge.
    beta : int, optional
        BFS truncation depth (paper default 5).
    joins : repro.core.ball_join.JoinStore, optional
        A store reset to the tree: every candidate's ball-pair join is
        appended to it, up to its cap, to seed the first general round.

    Returns
    -------
    (criticality, edge_ids, resistances)
        Arrays aligned with each other: the truncated trace reduction,
        the candidate ids, and the tree effective resistances.
    """
    if edge_ids is None:
        mask = forest.tree_edge_mask()
        edge_ids = np.flatnonzero(~mask)
    edge_ids = np.asarray(edge_ids, dtype=np.int64)
    if len(edge_ids) == 0:
        return np.empty(0), edge_ids, np.empty(0)

    heads = graph.u[edge_ids]
    tails = graph.v[edge_ids]
    resistances, _ = batch_tree_resistances(forest, heads, tails)
    tin, tout = forest.euler_intervals()
    tree_indptr, tree_nbr, tree_local_eid = forest.tree.adjacency()
    tree = (tree_indptr, tree_nbr, forest.edge_ids[tree_local_eid],
            forest.depth, tin, tout)
    adjacency = graph.adjacency()
    weights = graph.w
    positions = LookupTable(graph.n, len(edge_ids), np.int32, -1)

    def score_block(start, stop):
        p, q = heads[start:stop], tails[start:stop]
        r_pq = resistances[start:stop]
        ends = (tin[p], tin[q])
        # Eq. (13): v(p) = R_T(p, q), dropping by 1/w across path edges
        # away from p; Eq. (14): v(q) = 0, rising across them.
        p_owner, p_nodes, p_values = _tree_balls(
            tree, weights, p, r_pq, ends, -1.0, beta)
        q_owner, q_nodes, q_values = _tree_balls(
            tree, weights, q, np.zeros(len(q)), ends, +1.0, beta)
        src, nbr, src_in_q, eids = ball_pair_edges(
            adjacency, positions, p_owner, p_nodes, q_owner, q_nodes)
        if joins is not None and not joins.full:
            joins.append(edge_ids[start:stop], p_owner[src], eids)
        src_values = np.where(src_in_q >= 0, q_values[src_in_q],
                              p_values[src])
        diffs = src_values - q_values[nbr]
        numerator = np.bincount(p_owner[src],
                                weights=weights[eids] * diffs * diffs,
                                minlength=len(p))
        w_pq = weights[edge_ids[start:stop]]
        scores = w_pq * numerator / (1.0 + w_pq * r_pq)
        incidences = adjacency[0][p_nodes + 1] - adjacency[0][p_nodes]
        return scores, len(p_nodes) + len(q_nodes) + int(incidences.sum())

    crit = score_in_blocks(len(edge_ids), score_block, graph)
    return crit, edge_ids, resistances


def _tree_balls(tree, weights, sources, start_values, ends, sign, beta):
    """Beta-balls of the tree around *sources*, with their potentials.

    Grows one ball per source level by level.  In a tree every node of a
    ball has exactly one predecessor, so a level is the previous one's
    tree neighbors minus the node each came from.  A node copies its
    predecessor's potential, adjusted by ``sign / w`` when the connecting
    tree edge lies on the candidate's p-q path: the edge (parent, child)
    is on the path iff exactly one of p, q lies in child's subtree
    (Euler intervals, ``ends = (tin[p], tin[q])`` per candidate).

    Returns the entries ``(owner, node, potential)`` grouped by owner,
    each owner's nodes in BFS order.
    """
    indptr, neighbors, edge_ids, depth, tin, tout = tree
    tin_p, tin_q = ends
    owner = np.arange(len(sources))
    node = np.asarray(sources, dtype=np.int64)
    came_from = np.full(len(sources), -1, dtype=np.int64)
    value = np.asarray(start_values, dtype=np.float64)
    levels = [(owner, node, value)]
    for _ in range(beta):
        lengths, reached, via = gather_ranges(indptr, node, neighbors,
                                              edge_ids)
        pred = np.repeat(node, lengths)
        fresh = reached != np.repeat(came_from, lengths)
        if not fresh.any():
            break
        pred = pred[fresh]
        owner = np.repeat(owner, lengths)[fresh]
        value = np.repeat(value, lengths)[fresh]
        node = reached[fresh]
        child = np.where(depth[node] > depth[pred], node, pred)
        lo, hi = tin[child], tout[child]
        in_p = (lo <= tin_p[owner]) & (tin_p[owner] < hi)
        in_q = (lo <= tin_q[owner]) & (tin_q[owner] < hi)
        value = np.where(in_p != in_q, value + sign / weights[via[fresh]],
                         value)
        came_from = pred
        levels.append((owner, node, value))
    owner, node, value = (np.concatenate(parts) for parts in zip(*levels))
    order = np.argsort(owner, kind="stable")
    return owner[order], node[order], value[order]
