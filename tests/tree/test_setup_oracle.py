"""The array set-up against its loop oracles, bit for bit.

Components, spanning forests, rooting, Euler intervals and LCAs are all
unique answers, so the scipy/numpy code in ``repro.graph.components``
and ``repro.tree`` must return exactly what the loops in
``tests/oracles.py`` return — ``rdist`` and the resistances compared as
raw bits.  Random graphs cover isolated nodes, several components, one
and two nodes, and tied weights; a long path and a wide star cover the
height and degree extremes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from repro.graph import Graph, grid2d
from repro.graph.components import component_roots, connected_components
from repro.tree import (
    RootedForest,
    batch_tree_resistances,
    bfs_spanning_forest,
    maximum_spanning_forest,
    mewst,
)
from repro.tree.spanning import effective_weights


@st.composite
def forest_graphs(draw):
    """Random graphs of 1-40 nodes with tied weights and isolated nodes."""
    n = draw(st.integers(1, 40))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=2 * n,
    ))
    weights = draw(st.lists(st.sampled_from([0.5, 1.0, 1.0, 2.0, 3.7]),
                            min_size=len(pairs), max_size=len(pairs)))
    edges = {}
    for (a, b), w in zip(pairs, weights):
        if a != b:
            edges[(min(a, b), max(a, b))] = w
    return Graph.from_edges(n, [(a, b, w) for (a, b), w in edges.items()])


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _assert_forest_matches(graph, tree_ids):
    forest = RootedForest(graph, tree_ids)
    loop = oracles.RootedForest(graph, tree_ids)
    for field in ("edge_ids", "component_labels", "roots", "parent",
                  "parent_edge", "depth"):
        np.testing.assert_array_equal(getattr(forest, field),
                                      getattr(loop, field), err_msg=field)
    assert forest.component_count == loop.component_count
    np.testing.assert_array_equal(_bits(forest.rdist), _bits(loop.rdist))
    for ours, theirs in zip(forest.euler_intervals(), loop.euler_intervals()):
        np.testing.assert_array_equal(ours, theirs)

    # Every edge of the graph, plus random same-component pairs.
    rng = np.random.default_rng(0)
    qu = rng.integers(0, graph.n, size=3 * graph.n)
    qv = rng.integers(0, graph.n, size=3 * graph.n)
    same = forest.component_labels[qu] == forest.component_labels[qv]
    qu = np.concatenate([graph.u, qu[same]])
    qv = np.concatenate([graph.v, qv[same]])
    resist, lcas = batch_tree_resistances(forest, qu, qv)
    loop_resist, loop_lcas = oracles.tree_resistances(loop, qu, qv)
    np.testing.assert_array_equal(lcas, loop_lcas)
    np.testing.assert_array_equal(_bits(resist), _bits(loop_resist))


def _assert_setup_matches(graph):
    count, labels = connected_components(graph)
    loop_count, loop_labels = oracles.connected_components(graph)
    assert count == loop_count
    np.testing.assert_array_equal(labels, loop_labels)
    np.testing.assert_array_equal(component_roots(labels),
                                  oracles.component_roots(loop_labels))
    for build, loop_build in (
        (maximum_spanning_forest, oracles.maximum_spanning_forest),
        (mewst, oracles.mewst),
        (bfs_spanning_forest, oracles.bfs_spanning_forest),
    ):
        tree_ids = build(graph)
        np.testing.assert_array_equal(tree_ids, loop_build(graph))
        _assert_forest_matches(graph, tree_ids)


@given(graph=forest_graphs())
@settings(max_examples=80, deadline=None)
def test_setup_matches_loop_oracles(graph):
    _assert_setup_matches(graph)


@pytest.mark.parametrize("n", [1, 2])
def test_one_and_two_nodes(n):
    _assert_setup_matches(Graph(n, [], [], []))
    if n == 2:
        _assert_setup_matches(Graph.from_edges(2, [(0, 1, 2.0)]))


def test_grid_with_tied_weights():
    _assert_setup_matches(grid2d(12, 9, weights="unit", seed=0))


def test_long_path_reaches_full_height():
    n = 3000
    rng = np.random.default_rng(4)
    # Node 0 (the root) at one end, the rest shuffled along the path.
    order = np.concatenate([[0], 1 + rng.permutation(n - 1)])
    edges = [(int(order[k]), int(order[k + 1]), float(rng.uniform(0.5, 2)))
             for k in range(n - 1)]
    graph = Graph.from_edges(n, edges)
    tree_ids = mewst(graph)
    np.testing.assert_array_equal(tree_ids, oracles.mewst(graph))
    forest = RootedForest(graph, tree_ids)
    assert forest.depth.max() == n - 1
    _assert_forest_matches(graph, tree_ids)


def test_wide_star():
    n = 4000
    graph = Graph.from_edges(n, [(0, k, 1.0 + k % 3) for k in range(1, n)])
    _assert_setup_matches(graph)


def test_msf_key_ties_break_on_edge_id():
    graph = grid2d(6, 6, weights="unit", seed=0)
    key = np.round(effective_weights(graph), 1)
    np.testing.assert_array_equal(
        maximum_spanning_forest(graph, key=key),
        oracles.maximum_spanning_forest(graph, key=key),
    )
