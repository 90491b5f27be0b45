"""Per-candidate micro-kernels of the restricted quadratic form.

Eqs. 12, 15 and 20 end with the same restricted Laplacian quadratic
form: given per-node values ``s`` (voltages or SPAI inner products),
sum ``w_ij (s_i - s_j)^2`` over the original graph's edges joining the
two BFS balls of one candidate.  These helpers evaluate it for one
candidate at a time, for the solve-based Eq. 12 reference and the
kernel tiers; the production scorers join whole blocks of candidates
in :mod:`repro.core.ball_join`.
"""

from __future__ import annotations

import numpy as np

from repro.utils.arrays import concat_ranges

__all__ = ["ball_pair_edge_sum", "ball_pair_edge_sum_flat"]


def ball_pair_edge_sum(
    indptr,
    neighbors,
    edge_ids,
    weights,
    nodes_p,
    in_q_stamp,
    clock,
    values,
):
    """``sum w_e (values[i] - values[j])^2`` over ball-to-ball edges.

    Edges of the original graph with one endpoint in ``nodes_p`` (the
    ball around p) and the other stamped as belonging to the ball
    around q.  Each undirected edge is counted once even when both
    orientations qualify.

    Parameters
    ----------
    indptr, neighbors, edge_ids:
        CSR adjacency of the *original* graph.
    weights:
        Edge weight array of the original graph.
    nodes_p:
        Ball around the first endpoint.
    in_q_stamp, clock:
        Stamp array marking the second ball: node ``x`` is in the ball
        iff ``in_q_stamp[x] == clock``.
    values:
        Dense per-node value array (voltages / inner products); only
        entries of ball nodes are read.

    Returns
    -------
    float
        The restricted quadratic form.
    """
    starts = indptr[nodes_p]
    lengths = indptr[nodes_p + 1] - starts
    flat = concat_ranges(starts, lengths)
    if len(flat) == 0:
        return 0.0
    nbrs = neighbors[flat]
    eids = edge_ids[flat]
    sources = np.repeat(nodes_p, lengths)
    return ball_pair_edge_sum_flat(
        sources, nbrs, eids, weights, in_q_stamp, clock, values
    )


def ball_pair_edge_sum_flat(
    sources,
    nbrs,
    eids,
    weights,
    in_q_stamp,
    clock,
    values,
):
    """:func:`ball_pair_edge_sum` on a pre-flattened adjacency slice.

    Takes the flattened incident-edge triples ``(sources, nbrs, eids)``
    of the p-ball in the original graph, so it skips the CSR gather that
    :func:`ball_pair_edge_sum` performs and goes straight to the stamped
    restriction.

    Parameters
    ----------
    sources, nbrs, eids : numpy.ndarray
        Parallel arrays: for every (directed) incidence of a ball node,
        the ball node itself, its neighbor, and the connecting edge id.
    weights : numpy.ndarray
        Edge weight array of the original graph.
    in_q_stamp, clock :
        Stamp array marking the second ball: node ``x`` is in the ball
        iff ``in_q_stamp[x] == clock``.
    values : numpy.ndarray
        Dense per-node value array; only ball-node entries are read.

    Returns
    -------
    float
        The restricted quadratic form.
    """
    mask = in_q_stamp[nbrs] == clock
    if not np.any(mask):
        return 0.0
    eids = eids[mask]
    nbrs = nbrs[mask]
    sources = sources[mask]
    # Dedupe: when both orientations qualify the edge appears twice.
    unique_eids, first = np.unique(eids, return_index=True)
    diffs = values[sources[first]] - values[nbrs[first]]
    return float(np.sum(weights[unique_eids] * diffs * diffs))
