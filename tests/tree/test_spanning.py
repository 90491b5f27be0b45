"""Tests for spanning-forest extraction (Kruskal / MEWST / BFS)."""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graph import Graph, connected_components, grid2d
from repro.tree import (
    bfs_spanning_forest,
    maximum_spanning_forest,
    mewst,
)
from repro.tree.spanning import effective_weights


def _is_spanning_forest(graph, edge_ids):
    """Check acyclicity + spanning by component counting."""
    count, _ = connected_components(graph)
    sub = graph.subgraph(np.asarray(edge_ids))
    sub_count, _ = connected_components(sub)
    return len(edge_ids) == graph.n - count and sub_count == count


@pytest.mark.parametrize("method", [maximum_spanning_forest, mewst, bfs_spanning_forest])
def test_produces_spanning_forest(method, small_grid):
    ids = method(small_grid)
    assert _is_spanning_forest(small_grid, ids)


@pytest.mark.parametrize("method", [maximum_spanning_forest, mewst, bfs_spanning_forest])
def test_handles_disconnected(method, forest_graph):
    ids = method(forest_graph)
    assert _is_spanning_forest(forest_graph, ids)


def test_max_weight_tree_on_triangle(triangle_graph):
    """Kruskal keeps the two heaviest edges of a triangle."""
    ids = maximum_spanning_forest(triangle_graph)
    kept_weights = sorted(triangle_graph.w[ids])
    assert kept_weights == [2.0, 3.0]


def test_max_weight_respects_custom_key(triangle_graph):
    # Invert preference: with key = -w, the two lightest edges win.
    ids = maximum_spanning_forest(triangle_graph, key=-triangle_graph.w)
    kept = sorted(triangle_graph.w[ids])
    assert kept == [1.0, 2.0]


def test_effective_weights_formula(triangle_graph):
    eff = effective_weights(triangle_graph)
    deg = triangle_graph.weighted_degrees()
    for k in range(triangle_graph.edge_count):
        u, v = triangle_graph.u[k], triangle_graph.v[k]
        expected = triangle_graph.w[k] * 0.5 * (1 / deg[u] + 1 / deg[v])
        assert eff[k] == pytest.approx(expected)


def test_mewst_differs_from_max_weight_sometimes():
    """A hub graph: MEWST penalizes high-degree hub edges."""
    # Star of heavy edges + a light cycle around the leaves.
    edges = []
    hub_weight = 10.0
    for leaf in range(1, 6):
        edges.append((0, leaf, hub_weight))
    for leaf in range(1, 6):
        nxt = 1 + (leaf % 5)
        edges.append((min(leaf, nxt), max(leaf, nxt), 9.0))
    g = Graph.from_edges(6, edges)
    mst = set(maximum_spanning_forest(g).tolist())
    mew = set(mewst(g).tolist())
    # Plain max-weight keeps all five hub edges; MEWST should not.
    hub_edges = {k for k in range(g.edge_count) if g.u[k] == 0}
    assert hub_edges <= mst
    assert not hub_edges <= mew


def test_deterministic(small_mesh):
    a = mewst(small_mesh)
    b = mewst(small_mesh)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("length", [5, 23, 25])
def test_key_length_must_match_edge_count(length):
    """A short key used to drop edges silently; a long one hit IndexError."""
    g = grid2d(4, 4, seed=0)
    assert g.edge_count == 24
    key = np.resize(g.w, length)
    with pytest.raises(GraphError, match="24 edges"):
        maximum_spanning_forest(g, key=key)
