"""Spanning-forest extraction (Algorithm 2, step 1).

The paper constructs its initial subgraph with the *maximum effective
weight spanning tree* (MEWST) of feGRASS [13]: a maximum spanning tree
computed not on the raw weights but on "effective weights" that fold in
local degree information, which empirically yields a low-stretch tree.
We implement MEWST plus two alternatives used in the tree ablation
benchmark: the plain maximum-weight spanning forest and a BFS forest.

All functions return *edge id arrays* indexing into the parent graph's
edge storage, and operate per connected component (forests).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import minimum_spanning_tree

from repro.exceptions import GraphError
from repro.graph.bfs import bfs_forest
from repro.graph.components import connected_components, component_roots
from repro.graph.graph import Graph

__all__ = [
    "maximum_spanning_forest",
    "effective_weights",
    "mewst",
    "bfs_spanning_forest",
]


def maximum_spanning_forest(graph: Graph, key=None) -> np.ndarray:
    """Maximum spanning forest under a strict edge order.

    Edges are ranked by descending key, ties by ascending edge id.  The
    ranks are distinct, so the forest of minimum total rank is unique:
    it is what Kruskal's algorithm picks walking the edges in that
    order, and ``scipy.sparse.csgraph.minimum_spanning_tree`` finds it
    with the ranks as weights.

    Parameters
    ----------
    graph:
        Input graph (may be disconnected).
    key:
        Optional per-edge sort key, one value per edge (defaults to the
        edge weights); the forest maximizes the total key.

    Returns
    -------
    numpy.ndarray
        Sorted ids of the selected edges (``n - #components`` of them).

    Raises
    ------
    GraphError
        When *key* does not hold exactly one value per edge.
    """
    if key is None:
        key = graph.w
    key = np.asarray(key, dtype=np.float64)
    if key.shape != (graph.edge_count,):
        raise GraphError(
            f"key holds {key.size} values for {graph.edge_count} edges"
        )
    order = np.argsort(-key, kind="stable")
    rank = np.empty(len(order))
    rank[order] = np.arange(1, len(order) + 1)
    ranked = sp.csr_matrix((rank, (graph.u, graph.v)),
                           shape=(graph.n, graph.n))
    picked = minimum_spanning_tree(ranked).data.astype(np.int64) - 1
    return np.sort(order[picked])


def effective_weights(graph: Graph) -> np.ndarray:
    """feGRASS-style effective edge weights.

    For edge ``e = (u, v)`` we use
    ``w_e * (1/d_w(u) + 1/d_w(v)) / 2`` where ``d_w`` is the weighted
    degree.  ``(1/d_w(u) + 1/d_w(v)) / 2`` is the classic degree-local
    surrogate for effective resistance, so the product approximates the
    leverage score ``w_e * R_eff(e)``; maximizing it favours edges that
    the spectrum depends on, giving a low-stretch tree (see DESIGN.md,
    substitution 5).
    """
    deg = graph.weighted_degrees()
    inv_u = 1.0 / deg[graph.u]
    inv_v = 1.0 / deg[graph.v]
    return graph.w * 0.5 * (inv_u + inv_v)


def mewst(graph: Graph) -> np.ndarray:
    """Maximum effective weight spanning forest (feGRASS MEWST)."""
    return maximum_spanning_forest(graph, key=effective_weights(graph))


def bfs_spanning_forest(graph: Graph) -> np.ndarray:
    """BFS spanning forest from each component's smallest node id."""
    _, labels = connected_components(graph)
    indptr, nbr, _ = graph.adjacency()
    _, parent = bfs_forest(indptr, nbr, component_roots(labels))
    # An edge is in the forest iff one endpoint is the other's parent.
    u, v = graph.u, graph.v
    return np.flatnonzero((parent[v] == u) | (parent[u] == v))
