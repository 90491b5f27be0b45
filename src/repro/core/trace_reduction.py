"""Trace-reduction spectral criticality (Eqs. 11, 12 and 20).

Recovering an off-subgraph edge ``(p, q)`` changes the trace of
``L_S^{-1} L_G`` by (Sherman-Morrison, Eqs. 6-10)::

    TrRed_S(p, q) = w_pq * sum_{(i,j) in E} w_ij (e_ij^T L_S^{-1} e_pq)^2
                    -----------------------------------------------------
                                 1 + w_pq * R_S(p, q)

:func:`exact_trace_reduction` evaluates Eq. (11) verbatim through one
solve per edge (validation & tests).  Eq. (12), the sum restricted to
edges joining the beta-hop BFS balls of ``p`` and ``q``, has its
exact-solve reference in the test suite's oracles.

The production path, Eq. (20), replaces ``L_S^{-1}`` inner products with
sparse-approximate-inverse columns (Algorithm 1), giving ``O(log n)``
work per edge; it is :class:`repro.core.ranking.ApproxRanker`.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph

__all__ = [
    "exact_trace_reduction",
    "exact_trace_reduction_batch",
]


def exact_trace_reduction(graph: Graph, solve, p: int, q: int, w_pq: float):
    """Eq. (11) for one candidate edge, via one solve with ``L_S``.

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


def exact_trace_reduction_batch(graph: Graph, solve, edge_ids) -> np.ndarray:
    """Eq. (11) for a batch of candidate edge ids (one solve each)."""
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
