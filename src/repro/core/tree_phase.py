"""Tree-phase truncated trace reduction (Eqs. 13-15).

When the current subgraph is a spanning tree ``T``, no linear solves are
needed at all: the paper's physical model injects a unit current at
``p`` and extracts it at ``q``; the current flows only along the unique
tree path, so node potentials are piecewise constant off the path and
drop by ``1/w_e`` across each path edge.  Concretely:

* ``R_T(p, q)`` comes from one batched LCA query over all candidates
  (binary lifting, :func:`repro.tree.lca.batch_tree_resistances`);
* the potential of every node in the beta-ball around ``p`` (resp.
  ``q``) is propagated outward from the center: crossing a path edge
  changes the potential by ``-1/w`` (resp. ``+1/w``), any other tree
  edge keeps it (Eqs. 13-14).  Where the balls overlap, the q-side
  potential is used;
* the truncated numerator is the usual restricted quadratic form over
  original-graph edges joining the two balls (Eq. 15).  Those joins are
  what every later round needs too while the balls stay the same, so
  a :class:`~repro.core.ball_join.JoinStore` passed in collects them
  to seed round 2.

A tree ball does not depend on the candidate, only its potentials do,
so the ball of each distinct endpoint is grown once
(:func:`~repro.core.ball_join.ball_tables`), into a table that keeps,
per entry, the node in BFS order, its parent's offset, the Euler
interval of the crossed edge's child and ``1/w``.  Each candidate then
reads its two balls from the table and takes its potentials in
``beta`` array passes.  The "is this tree edge on path(p, q)?" test
uses the Euler intervals, so every step is an array operation over all
(candidate, node) entries of a block of candidates at once.
"""

from __future__ import annotations

import numpy as np

from repro.utils.arrays import concat_ranges, gather_ranges
from repro.core.ball_join import (
    LookupTable,
    ball_pair_edges,
    ball_tables,
    block_spans,
)
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
    tree = (tree_indptr, tree_nbr,
            1.0 / graph.w[forest.edge_ids[tree_local_eid]], forest.depth,
            tin, tout)
    adjacency = graph.adjacency()
    degree = np.diff(adjacency[0])
    weights = graph.w
    positions = LookupTable(graph.n, len(edge_ids), np.int32, -1)
    crit = np.empty(len(edge_ids))
    chunks = ball_tables(heads, tails, graph.n,
                         lambda nodes: _tree_balls(tree, nodes, beta))
    for start, _, p_ball, q_ball, ptr, table in chunks:
        sizes = np.diff(ptr)
        incidences = np.add.reduceat(degree[table[0]], ptr[:-1])
        work = sizes[p_ball] + sizes[q_ball] + incidences[p_ball]
        for lo, hi in block_spans(work):
            block = slice(start + lo, start + hi)
            p, q = heads[block], tails[block]
            r_pq = resistances[block]
            ends = (tin[p], tin[q])
            # Eq. (13): v(p) = R_T(p, q), dropping by 1/w across path
            # edges away from p; Eq. (14): v(q) = 0, rising across them.
            p_owner, p_nodes, p_values = _potentials(
                ptr, table, p_ball[lo:hi], r_pq, ends, -1.0, beta)
            q_owner, q_nodes, q_values = _potentials(
                ptr, table, q_ball[lo:hi], np.zeros(len(q)), ends, +1.0,
                beta)
            src, nbr, src_in_q, eids = ball_pair_edges(
                adjacency, positions, p_owner, p_nodes, q_owner, q_nodes)
            if joins is not None and not joins.full:
                joins.append(edge_ids[block], p_owner[src], eids)
            src_values = np.where(src_in_q >= 0, q_values[src_in_q],
                                  p_values[src])
            diffs = src_values - q_values[nbr]
            numerator = np.bincount(p_owner[src],
                                    weights=weights[eids] * diffs * diffs,
                                    minlength=len(p))
            w_pq = weights[edge_ids[block]]
            crit[block] = w_pq * numerator / (1.0 + w_pq * r_pq)
    return crit, edge_ids, resistances


def _tree_balls(tree, nodes, beta):
    """Beta-balls of the tree around the distinct *nodes*, as a table.

    Grows every ball level by level.  In a tree every node of a ball has
    exactly one predecessor, so a level is the previous one's tree
    neighbors minus the node each came from.  Each ball is one range of
    entries in BFS order; an entry holds its node, its predecessor's
    offset in the ball, the Euler interval ``[tin, tout)`` of the child
    end of the tree edge it was reached by and that edge's ``1/w``.  The
    center holds itself, an empty interval and ``0.0``.

    Returns ``(ptr, (node, parent, lo, hi, inv_w), work)``: ``int64``
    offsets, ``int32`` entry arrays but the ``float64`` *inv_w*, and the
    entries the growth materialized.
    """
    indptr, neighbors, inv_w, depth, tin, tout = tree
    count = len(nodes)
    owner = np.arange(count)
    node = np.asarray(nodes, dtype=np.int64)
    came_from = np.full(count, -1, dtype=np.int64)
    entry = np.arange(count)
    zero = np.zeros(count, dtype=np.int64)
    levels = [(owner, node, entry, zero, zero, np.zeros(count))]
    total = work = count
    for _ in range(beta):
        lengths, reached, step = gather_ranges(indptr, node, neighbors,
                                               inv_w)
        work += len(reached)
        fresh = reached != np.repeat(came_from, lengths)
        if not fresh.any():
            break
        pred = np.repeat(node, lengths)[fresh]
        parent = np.repeat(entry, lengths)[fresh]
        owner = np.repeat(owner, lengths)[fresh]
        node = reached[fresh]
        child = np.where(depth[node] > depth[pred], node, pred)
        entry = total + np.arange(len(node))
        total += len(node)
        came_from = pred
        levels.append((owner, node, parent, tin[child], tout[child],
                       step[fresh]))
    owner, node, parent, lo, hi, step = (np.concatenate(parts)
                                         for parts in zip(*levels))
    order = np.argsort(owner, kind="stable")
    place = np.empty(total, dtype=np.int64)
    place[order] = np.arange(total)
    ptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=count), out=ptr[1:])
    owner = owner[order]
    parent = place[parent[order]] - ptr[owner]
    table = tuple(a.astype(np.int32) for a in (
        node[order], parent, lo[order], hi[order])) + (step[order],)
    return ptr, table, work


def _potentials(ptr, table, balls, start_values, ends, sign, beta):
    """Eqs. 13-14 over one tree ball per candidate, read from the table.

    Candidate ``k`` reads ball ``balls[k]`` with ``start_values[k]`` at
    its center.  A node's potential is its predecessor's plus
    ``sign / w`` when the connecting tree edge lies on the candidate's
    p-q path, plus ``0.0`` otherwise: the edge (parent, child) is on the
    path iff exactly one of p, q lies in child's subtree (Euler
    intervals, ``ends = (tin[p], tin[q])`` per candidate).  ``beta``
    passes over every entry settle a ball ``beta`` levels deep.

    Returns the entries ``(owner, node, potential)`` grouped by owner,
    each owner's nodes in BFS order.
    """
    node, parent, lo, hi, inv_w = table
    lengths = ptr[balls + 1] - ptr[balls]
    flat = concat_ranges(ptr[balls], lengths)
    owner = np.repeat(np.arange(len(balls)), lengths)
    first = np.cumsum(lengths) - lengths
    up = parent[flat] + np.repeat(first, lengths)
    tin_p, tin_q = ends[0][owner], ends[1][owner]
    lo, hi = lo[flat], hi[flat]
    on_path = ((lo <= tin_p) & (tin_p < hi)) != ((lo <= tin_q) & (tin_q < hi))
    step = np.where(on_path, sign * inv_w[flat], 0.0)
    value = np.repeat(start_values, lengths)
    for _ in range(beta):
        value = value[up] + step
    return owner, node[flat], value
