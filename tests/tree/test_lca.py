"""Tests for the batched LCA query against the naive climb."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError, NotATreeError
from repro.graph import Graph, grid2d, triangular_mesh
from repro.tree import RootedForest, batch_tree_resistances, mewst


def _lcas(forest, qu, qv):
    return batch_tree_resistances(forest, qu, qv)[1]


def _random_queries(n, count, rng):
    qu = rng.integers(0, n, size=count)
    qv = rng.integers(0, n, size=count)
    return qu, qv


def test_empty_query_batch(small_grid_tree):
    out = _lcas(small_grid_tree, [], [])
    assert len(out) == 0


def test_matches_naive_on_grid(small_grid, small_grid_tree):
    rng = np.random.default_rng(0)
    qu, qv = _random_queries(small_grid.n, 200, rng)
    lcas = _lcas(small_grid_tree, qu, qv)
    for k in range(len(qu)):
        assert lcas[k] == small_grid_tree.lca_naive(int(qu[k]), int(qv[k]))


def test_matches_naive_on_mesh():
    g = triangular_mesh(150, seed=3)
    forest = RootedForest(g, mewst(g))
    rng = np.random.default_rng(1)
    qu, qv = _random_queries(g.n, 150, rng)
    lcas = _lcas(forest, qu, qv)
    for k in range(len(qu)):
        assert lcas[k] == forest.lca_naive(int(qu[k]), int(qv[k]))


def test_self_queries(small_grid_tree):
    nodes = np.array([0, 5, 17])
    lcas = _lcas(small_grid_tree, nodes, nodes)
    np.testing.assert_array_equal(lcas, nodes)


def test_rejects_cross_component(forest_graph):
    forest = RootedForest(forest_graph, mewst(forest_graph))
    with pytest.raises(NotATreeError):
        _lcas(forest, [0], [5])


def test_rejects_shape_mismatch(small_grid_tree):
    with pytest.raises(ValueError):
        _lcas(small_grid_tree, [0, 1], [2])


def test_forest_queries_within_components(forest_graph):
    forest = RootedForest(forest_graph, mewst(forest_graph))
    lcas = _lcas(forest, [0, 3], [2, 5])
    for k, (p, q) in enumerate([(0, 2), (3, 5)]):
        assert lcas[k] == forest.lca_naive(p, q)


def test_batch_resistances_match_single(small_grid, small_grid_tree):
    rng = np.random.default_rng(2)
    qu, qv = _random_queries(small_grid.n, 50, rng)
    resistances, lcas = batch_tree_resistances(small_grid_tree, qu, qv)
    rdist = small_grid_tree.rdist
    for k in range(len(qu)):
        p, q = int(qu[k]), int(qv[k])
        lca = small_grid_tree.lca_naive(p, q)
        expected = rdist[p] + rdist[q] - 2.0 * rdist[lca]
        assert resistances[k] == pytest.approx(expected)


def test_batch_resistances_vs_laplacian_pinv(path_graph):
    """Tree resistance == effective resistance from the pseudoinverse."""
    forest = RootedForest(path_graph, np.arange(4))
    from repro.graph import laplacian

    L = laplacian(path_graph).toarray()
    pinv = np.linalg.pinv(L)
    pairs = [(0, 4), (1, 3), (0, 2), (2, 4)]
    qu = np.array([p for p, _ in pairs])
    qv = np.array([q for _, q in pairs])
    resistances, _ = batch_tree_resistances(forest, qu, qv)
    for k, (p, q) in enumerate(pairs):
        e = np.zeros(5)
        e[p], e[q] = 1, -1
        assert resistances[k] == pytest.approx(e @ pinv @ e, rel=1e-9)


@given(seed=st.integers(0, 50))
@settings(max_examples=15, deadline=None)
def test_random_trees_match_naive(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 40))
    # Random tree: each node > 0 picks a parent among smaller ids.
    parents = [int(rng.integers(0, k)) for k in range(1, n)]
    edges = [(p, k + 1, float(rng.uniform(0.5, 2.0))) for k, p in enumerate(parents)]
    g = Graph.from_edges(n, edges)
    forest = RootedForest(g, np.arange(n - 1))
    qu = rng.integers(0, n, size=30)
    qv = rng.integers(0, n, size=30)
    lcas = _lcas(forest, qu, qv)
    for k in range(30):
        assert lcas[k] == forest.lca_naive(int(qu[k]), int(qv[k]))


@pytest.mark.parametrize("qu, qv", [
    ([-1], [0]),             # used to raise a bare ValueError from bincount
    ([0], [64]),             # used to raise a bare IndexError
    ([0.5], [3]),            # used to be truncated to node 0
    (np.array([0, 1], dtype=float), [2, 3]),
    ([True], [0]),
])
def test_rejects_bad_query_nodes(small_grid_tree, qu, qv):
    assert small_grid_tree.n == 64
    with pytest.raises(GraphError):
        batch_tree_resistances(small_grid_tree, qu, qv)
    with pytest.raises(GraphError):
        batch_tree_resistances(small_grid_tree, qv, qu)


def test_accepts_any_integer_query_dtype(small_grid_tree):
    qu = np.array([0, 5, 17, 63])
    qv = np.array([63, 2, 17, 40])
    expected = batch_tree_resistances(small_grid_tree, qu, qv)
    for cast in (np.int32, np.uint8):
        got = batch_tree_resistances(small_grid_tree, qu.astype(cast),
                                     qv.astype(cast))
        np.testing.assert_array_equal(got[1], expected[1])
        np.testing.assert_array_equal(got[0], expected[0])
