"""Tests for the RootedForest structure."""

import numpy as np
import pytest

from repro.exceptions import NotATreeError
from repro.graph import Graph
from repro.tree import RootedForest, mewst


@pytest.fixture(scope="module")
def path_forest(request):
    g = Graph.from_edges(5, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0), (3, 4, 0.5)])
    return g, RootedForest(g, np.arange(4))


def test_rejects_cycles(triangle_graph):
    with pytest.raises(NotATreeError):
        RootedForest(triangle_graph, np.array([0, 1, 2]))


def test_rejects_non_spanning(small_grid):
    with pytest.raises(NotATreeError):
        RootedForest(small_grid, np.array([0, 1]))


def test_path_structure(path_forest):
    g, forest = path_forest
    assert forest.roots.tolist() == [0]
    assert forest.parent[0] == -1
    assert forest.depth.tolist() == [0, 1, 2, 3, 4]
    # Resistive distance accumulates 1/w.
    np.testing.assert_allclose(
        forest.rdist, [0.0, 1.0, 1.5, 1.75, 3.75]
    )


def test_tree_resistance_on_path(path_forest):
    g, forest = path_forest
    assert forest.tree_resistance(0, 4) == pytest.approx(3.75)
    assert forest.tree_resistance(1, 3) == pytest.approx(0.75)
    assert forest.tree_resistance(2, 2) == pytest.approx(0.0)


def test_lca_naive(path_forest):
    g, forest = path_forest
    assert forest.lca_naive(0, 4) == 0
    assert forest.lca_naive(3, 4) == 3


def test_lca_on_star():
    g = Graph.from_edges(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
    forest = RootedForest(g, np.arange(3))
    assert forest.lca_naive(1, 2) == 0
    assert forest.lca_naive(1, 1) == 1


def test_path_edges_and_nodes(path_forest):
    g, forest = path_forest
    edges = forest.path_edges(1, 4)
    assert edges.tolist() == [1, 2, 3]
    nodes = forest.path_nodes(1, 4)
    assert nodes.tolist() == [1, 2, 3, 4]


def test_forest_components(forest_graph):
    ids = mewst(forest_graph)
    forest = RootedForest(forest_graph, ids)
    assert forest.component_count == 2
    assert len(forest.roots) == 2
    with pytest.raises(NotATreeError):
        forest.lca_naive(0, 5)  # different components


def test_tree_edge_mask(small_grid):
    ids = mewst(small_grid)
    forest = RootedForest(small_grid, ids)
    mask = forest.tree_edge_mask()
    assert mask.sum() == len(ids)
    assert mask[ids].all()


def test_euler_intervals_subtree_property(small_grid_tree):
    forest = small_grid_tree
    tin, tout = forest.euler_intervals()
    n = forest.n
    # Every node's interval is inside its parent's.
    for node in range(n):
        parent = forest.parent[node]
        if parent >= 0:
            assert tin[parent] <= tin[node] < tout[node] <= tout[parent]
    # Intervals are a permutation of 0..n-1 on tin.
    assert sorted(tin.tolist()) == list(range(n))


def test_edge_on_path_matches_path_edges(small_grid_tree, small_grid):
    forest = small_grid_tree
    rng = np.random.default_rng(5)
    for _ in range(25):
        p, q = rng.integers(0, small_grid.n, size=2)
        path = set(forest.path_edges(int(p), int(q)).tolist())
        for node in range(small_grid.n):
            edge = forest.parent_edge[node]
            if edge < 0:
                continue
            on_path = forest.edge_on_path(node, int(p), int(q))
            assert on_path == (edge in path)


@pytest.mark.parametrize("ids, message", [
    ([-1, 0, 1], "lie in"),              # -1 used to wrap to the last edge
    ([0, 1, 4], "lie in"),               # past the last edge id
    ([0, 1, 1, 2], "repeat"),
    (np.array([0.0, 1.0, 2.0, 3.0]), "integers"),
    (np.ones(4, dtype=bool), "integers"),
])
def test_rejects_bad_edge_ids(path_forest, ids, message):
    g, _ = path_forest
    with pytest.raises(NotATreeError, match=message):
        RootedForest(g, ids)


def test_accepts_any_integer_id_dtype(path_forest):
    g, forest = path_forest
    for ids in ([3, 2, 1, 0], np.arange(4, dtype=np.int32),
                np.arange(4, dtype=np.uint16)):
        other = RootedForest(g, ids)
        np.testing.assert_array_equal(other.edge_ids, forest.edge_ids)
        np.testing.assert_array_equal(other.parent_edge, forest.parent_edge)


def test_single_node_accepts_empty_ids():
    forest = RootedForest(Graph(1, [], [], []), [])
    assert forest.parent.tolist() == [-1]
    assert forest.rdist.tolist() == [0.0]
