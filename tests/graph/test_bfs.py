"""Tests for BFS kernels (BallFinder, bfs_forest) and the loop oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bfs_tree_order
from repro.graph import BallFinder, Graph, grid2d
from repro.graph.bfs import bfs_forest

# Big enough that a ball's frontier reaches BallFinder._VECTOR_FRONTIER
# (the L1 diamond's layer k holds 4k nodes), so ball_nodes switches
# from its Python loop to whole-layer array expansion.
_GRID_30 = grid2d(30, 30, weights="uniform", seed=14)


def _finder(graph, with_eids=False):
    indptr, nbr, eid = graph.adjacency()
    if with_eids:
        return BallFinder(indptr, nbr, edge_ids=eid)
    return BallFinder(indptr, nbr)


def test_ball_zero_layers(path_graph):
    nodes, pred, _ = _finder(path_graph).ball(2, 0)
    assert nodes.tolist() == [2]
    assert pred.tolist() == [-1]


def test_ball_one_layer(path_graph):
    nodes, pred, _ = _finder(path_graph).ball(2, 1)
    assert set(nodes.tolist()) == {1, 2, 3}


def test_ball_covers_path(path_graph):
    nodes, _, _ = _finder(path_graph).ball(0, 4)
    assert set(nodes.tolist()) == {0, 1, 2, 3, 4}


def test_ball_distances_on_grid(medium_grid):
    """Ball(k) on a grid is exactly the L1 diamond of radius k."""
    finder = _finder(medium_grid)
    side = 20
    center = 10 * side + 10
    for layers in (1, 2, 3):
        nodes, _, _ = finder.ball(center, layers)
        expected = 0
        for i in range(side):
            for j in range(side):
                if abs(i - 10) + abs(j - 10) <= layers:
                    expected += 1
        assert len(nodes) == expected


def test_ball_predecessors_precede(medium_grid):
    """Each node's predecessor appears earlier in the BFS order."""
    finder = _finder(medium_grid)
    nodes, pred, _ = finder.ball(25, 4)
    position = {int(n): k for k, n in enumerate(nodes)}
    for k in range(1, len(nodes)):
        assert position[int(pred[k])] < k


def test_ball_edge_ids(path_graph):
    nodes, pred, eids = _finder(path_graph, with_eids=True).ball(1, 1)
    lookup = path_graph.edge_lookup()
    for k in range(1, len(nodes)):
        a, b = sorted((int(nodes[k]), int(pred[k])))
        assert eids[k] == lookup[(a, b)]


def test_ball_reuse_is_clean(path_graph):
    """Stamp reuse: consecutive queries do not leak state."""
    finder = _finder(path_graph)
    first, _, _ = finder.ball(0, 1)
    second, _, _ = finder.ball(4, 1)
    assert set(second.tolist()) == {3, 4}


def _assert_ball_nodes_match_ball(finder, source, layers):
    nodes = finder.ball_nodes(source, layers)
    assert nodes.dtype == np.int64
    np.testing.assert_array_equal(
        nodes, np.sort(finder.ball(source, layers)[0])
    )


@pytest.mark.parametrize("layers", [8, 9, 12, 20])
def test_ball_nodes_vector_layers_match_ball(layers):
    """From the grid center, depths >= 9 expand the 32-node ring at
    distance 8 (and every later ring) as whole-layer array operations."""
    assert 4 * 8 >= BallFinder._VECTOR_FRONTIER
    _assert_ball_nodes_match_ball(_finder(_GRID_30), 15 * 30 + 15, layers)


@given(queries=st.lists(
    st.tuples(st.integers(0, _GRID_30.n - 1), st.integers(0, 20)),
    min_size=1, max_size=6,
))
@settings(max_examples=40, deadline=None)
def test_ball_nodes_matches_sorted_ball_property(queries):
    """ball_nodes == sorted ball() for any source and depth, on one
    reused finder (stamps from earlier queries must not leak)."""
    finder = _finder(_GRID_30)
    for source, layers in queries:
        _assert_ball_nodes_match_ball(finder, source, layers)


def test_ball_nodes_on_forest_star_and_isolated_node(forest_graph):
    finder = _finder(forest_graph)
    for source in range(forest_graph.n):
        for layers in (0, 1, 3):
            _assert_ball_nodes_match_ball(finder, source, layers)
    # From a leaf, layer 3 expands the other 39 leaves as one array
    # operation and finds nothing new.
    star = Graph.from_edges(41, [(0, k, 1.0) for k in range(1, 41)])
    finder = _finder(star)
    for source in (0, 1):
        _assert_ball_nodes_match_ball(finder, source, 3)
    isolated = Graph.from_edges(4, [(0, 1, 1.0), (1, 2, 2.0)])
    finder = _finder(isolated)
    assert finder.ball_nodes(3, 20).tolist() == [3]
    _assert_ball_nodes_match_ball(finder, 3, 20)


def test_bfs_tree_order_visits_all(medium_grid):
    indptr, nbr, _ = medium_grid.adjacency()
    order, pred = bfs_tree_order(indptr, nbr, [0], n=medium_grid.n)
    assert len(order) == medium_grid.n
    assert pred[0] == -1
    assert (pred[order[1:]] >= 0).all()


def test_bfs_tree_order_multiple_roots(forest_graph):
    indptr, nbr, _ = forest_graph.adjacency()
    order, pred = bfs_tree_order(indptr, nbr, [0, 3], n=forest_graph.n)
    assert len(order) == forest_graph.n
    assert pred[0] == -1 and pred[3] == -1


def test_bfs_tree_order_unreachable(forest_graph):
    indptr, nbr, _ = forest_graph.adjacency()
    order, pred = bfs_tree_order(indptr, nbr, [0], n=forest_graph.n)
    assert set(order.tolist()) == {0, 1, 2}
    assert (pred[[3, 4, 5]] == -2).all()


@pytest.mark.parametrize("roots", [[0], [0, 3], [3, 0]])
def test_bfs_forest_matches_one_queue_per_root(forest_graph, roots):
    indptr, nbr, _ = forest_graph.adjacency()
    order, parent = bfs_forest(indptr, nbr, roots)
    loop_order, loop_pred = bfs_tree_order(indptr, nbr, roots)
    np.testing.assert_array_equal(parent, np.maximum(loop_pred, -1))
    assert sorted(order.tolist()) == sorted(loop_order.tolist())


def test_bfs_forest_visits_level_by_level(medium_grid):
    indptr, nbr, _ = medium_grid.adjacency()
    roots = [0, 210, 399]
    order, parent = bfs_forest(indptr, nbr, roots)
    assert order[:3].tolist() == roots
    assert len(order) == medium_grid.n
    hops = np.zeros(medium_grid.n, dtype=np.int64)
    for node in order[3:]:
        hops[node] = hops[parent[node]] + 1
    assert (np.diff(hops[order]) >= 0).all()
