"""Tests for the RootedForest structure."""

import numpy as np
import pytest

import oracles
from repro.exceptions import NotATreeError
from repro.graph import Graph, grid2d
from repro.tree import RootedForest, batch_tree_resistances, mewst


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


def _assert_rdist_is_the_level_loops(forest):
    expected = oracles.level_rdist(forest)
    assert np.array_equal(forest.rdist.view(np.int64),
                          expected.view(np.int64))


def test_rdist_on_a_long_path_is_the_level_loops():
    """One compiled Dijkstra makes the per-level sums' bits, 999 levels
    deep, with weights whose reciprocals round."""
    rng = np.random.default_rng(5)
    n = 1000
    weights = rng.uniform(0.1, 10.0, n - 1)
    # From the root, node 0, the path visits the others out of id order.
    order = np.concatenate([[0], 1 + rng.permutation(n - 1)])
    g = Graph.from_edges(n, [(int(order[k]), int(order[k + 1]), weights[k])
                             for k in range(n - 1)])
    forest = RootedForest(g, np.arange(n - 1))
    assert forest.depth.max() == n - 1
    _assert_rdist_is_the_level_loops(forest)


def test_rdist_on_a_forest_of_several_roots_is_the_level_loops():
    """A grid, a path, a star and an isolated node: four roots."""
    grid = grid2d(9, 7, weights="uniform", seed=4)
    edges = [(int(a), int(b), float(w))
             for a, b, w in zip(grid.u, grid.v, grid.w)]
    base = grid.n
    edges += [(base + k, base + k + 1, 0.3 + k) for k in range(6)]
    edges += [(base + 7, base + 8 + k, 1.0 / (k + 3)) for k in range(5)]
    g = Graph.from_edges(base + 14, edges)
    forest = RootedForest(g, mewst(g))
    assert forest.component_count == 4
    _assert_rdist_is_the_level_loops(forest)


def test_tree_resistance_on_path(path_forest):
    g, forest = path_forest
    resistances, _ = batch_tree_resistances(forest, [0, 1, 2], [4, 3, 2])
    np.testing.assert_allclose(resistances, [3.75, 0.75, 0.0])


def test_lca_naive(path_forest):
    g, forest = path_forest
    assert forest.lca_naive(0, 4) == 0
    assert forest.lca_naive(3, 4) == 3


def test_lca_on_star():
    g = Graph.from_edges(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
    forest = RootedForest(g, np.arange(3))
    assert forest.lca_naive(1, 2) == 0
    assert forest.lca_naive(1, 1) == 1


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
