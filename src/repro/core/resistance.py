"""Effective resistances (Eq. 4).

``R_S(p, q) = e_pq^T L_S^{-1} e_pq`` — computed exactly through a solve
with the (regularized) subgraph Laplacian.  For trees, use
:func:`repro.tree.lca.batch_tree_resistances` instead, which answers
all queries with one batched LCA pass.
"""

from __future__ import annotations

import numpy as np

__all__ = ["effective_resistance", "effective_resistances"]


def effective_resistance(solve, p: int, q: int, n: int) -> float:
    """Effective resistance across nodes *p*, *q* via one solve.

    Parameters
    ----------
    solve:
        Callable applying ``L_S^{-1}`` (e.g. ``CholeskyFactor.solve``).
    p, q:
        Node indices.
    n:
        Number of nodes.
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
