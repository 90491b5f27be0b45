"""Graph Laplacians, incidence matrices and SDD regularization.

Implements Eq. (1) of the paper plus the regularization described in its
footnote 1: both the original graph's Laplacian ``L_G`` and any
subgraph's Laplacian ``L_S`` receive the *same* small positive diagonal
shift, which makes them nonsingular SDD matrices whose smallest
generalized eigenvalue is exactly 1 (attained by the all-ones vector),
so the relative condition number reduces to
``kappa(L_G, L_S) = lambda_max(L_S^{-1} L_G)``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphError
from repro.graph.graph import Graph

__all__ = [
    "laplacian",
    "incidence_matrix",
    "regularization_shift",
    "regularized_laplacian",
    "graph_from_sdd_matrix",
]


def laplacian(graph: Graph, shift=None, fmt: str = "csc") -> sp.spmatrix:
    """Laplacian matrix of *graph*, optionally with a diagonal shift.

    Parameters
    ----------
    graph:
        The graph.
    shift:
        ``None`` for the pure (singular) Laplacian, a scalar for a uniform
        diagonal shift, or a length-``n`` vector of per-node shifts.
    fmt:
        scipy sparse format of the result (``"csc"``, ``"csr"``, ``"coo"``).
    """
    n = graph.n
    rows = np.concatenate([graph.u, graph.v, graph.u, graph.v])
    cols = np.concatenate([graph.v, graph.u, graph.u, graph.v])
    data = np.concatenate([-graph.w, -graph.w, graph.w, graph.w])
    if shift is not None:
        shift_vec = np.broadcast_to(
            np.asarray(shift, dtype=np.float64), (n,)
        )
        rows = np.concatenate([rows, np.arange(n)])
        cols = np.concatenate([cols, np.arange(n)])
        data = np.concatenate([data, shift_vec])
    mat = sp.coo_matrix((data, (rows, cols)), shape=(n, n))
    return mat.asformat(fmt)


def incidence_matrix(graph: Graph, weighted: bool = False) -> sp.csr_matrix:
    """Edge-node incidence matrix ``B`` with one row per edge.

    Row ``e = (u, v)`` is ``e_u - e_v``; when *weighted* is true each row
    is scaled by ``sqrt(w_e)`` so that ``B^T B`` equals the Laplacian.
    """
    m = graph.edge_count
    rows = np.concatenate([np.arange(m), np.arange(m)])
    cols = np.concatenate([graph.u, graph.v])
    vals = np.ones(m)
    if weighted:
        vals = np.sqrt(graph.w)
    data = np.concatenate([vals, -vals])
    return sp.csr_matrix((data, (rows, cols)), shape=(m, graph.n))


def regularization_shift(graph: Graph, rel: float = 1e-6) -> np.ndarray:
    """Per-node diagonal shift vector ``rel * weighted_degree(G)``.

    The shift is computed from the *original* graph and reused verbatim
    for all of its subgraphs, so that ``L_G + D`` and ``L_S + D`` satisfy
    ``x^T (L_G + D) x >= x^T (L_S + D) x`` with equality at the all-ones
    vector, pinning the smallest generalized eigenvalue at 1 (paper
    footnote 1).
    """
    if not 0 < rel < np.inf:
        raise GraphError(
            f"relative shift must be positive and finite, got {rel}"
        )
    deg = graph.weighted_degrees()
    # Isolated nodes (possible in subgraphs of forests) still need a
    # strictly positive diagonal; fall back to the graph's mean degree.
    fallback = deg[deg > 0].mean() if np.any(deg > 0) else 1.0
    shift = rel * np.where(deg > 0, deg, fallback)
    return shift


def regularized_laplacian(
    graph: Graph, shift: np.ndarray, fmt: str = "csc"
) -> sp.spmatrix:
    """``laplacian(graph) + diag(shift)`` as a nonsingular SDD matrix."""
    shift = np.asarray(shift, dtype=np.float64)
    if shift.shape != (graph.n,):
        raise GraphError(
            f"shift must have shape ({graph.n},), got {shift.shape}"
        )
    if not np.all((shift > 0) & (shift < np.inf)):
        raise GraphError(
            "regularization shift must be strictly positive and finite"
        )
    return laplacian(graph, shift=shift, fmt=fmt)


def graph_from_sdd_matrix(matrix) -> tuple:
    """Split an SDD matrix into ``(Graph, diagonal_excess)``.

    Off-diagonal entries ``a_ij < 0`` become edges of weight ``-a_ij``
    (positive off-diagonals, which cannot be represented by a graph
    Laplacian, raise :class:`~repro.exceptions.GraphError`).  The second
    return value is the vector ``diag(A) - weighted_degree``, i.e. the
    part of the diagonal not explained by edges (ground conductances in
    circuit terms).
    """
    coo = sp.coo_matrix(matrix)
    if coo.shape[0] != coo.shape[1]:
        raise GraphError(f"matrix must be square, got {coo.shape}")
    off = coo.row != coo.col
    rows, cols, vals = coo.row[off], coo.col[off], coo.data[off]
    if np.any(vals > 0):
        raise GraphError("matrix has positive off-diagonal entries")
    upper = rows < cols
    graph = Graph(coo.shape[0], rows[upper], cols[upper], -vals[upper])
    excess = np.asarray(matrix.diagonal()) - graph.weighted_degrees()
    return graph, excess
