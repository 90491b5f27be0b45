"""Connected-component utilities (forest-aware algorithms need these)."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from repro.graph.graph import Graph

__all__ = ["connected_components", "is_connected", "component_roots"]


def connected_components(graph: Graph):
    """Label connected components.

    Returns
    -------
    count : int
        Number of components.
    labels : numpy.ndarray
        ``labels[i]`` is the 0-based component id of node ``i``; ids are
        assigned in order of each component's smallest node.
    """
    n = graph.n
    upper = sp.csr_matrix(
        (np.ones(graph.edge_count), (graph.u, graph.v)), shape=(n, n)
    )
    count, labels = csgraph.connected_components(upper, directed=False)
    # Renumber scipy's labels by each component's smallest node.
    rank = np.empty(count, dtype=np.int64)
    rank[np.argsort(component_roots(labels))] = np.arange(count)
    return int(count), rank[labels]


def is_connected(graph: Graph) -> bool:
    """True when the graph has a single connected component."""
    count, _ = connected_components(graph)
    return count == 1


def component_roots(labels: np.ndarray) -> np.ndarray:
    """Smallest node id of each component (roots for forest rooting)."""
    count = int(labels.max()) + 1 if len(labels) else 0
    roots = np.full(count, len(labels), dtype=np.int64)
    np.minimum.at(roots, labels, np.arange(len(labels)))
    return roots
