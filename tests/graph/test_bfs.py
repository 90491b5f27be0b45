"""Tests for the BFS kernels (ball_sets, ball_union, bfs_forest) against
the loop oracles (BallFinder.ball, bfs_tree_order)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import BallFinder, bfs_tree_order
from repro.graph import Graph, grid2d
from repro.graph.bfs import ball_sets, ball_union, bfs_forest

# Big enough that rings of 32 and more nodes (the L1 diamond's layer k
# holds 4k nodes) expand as one array operation per level.
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


def _assert_balls_match_the_oracle(graph, sources, layers):
    """Each ball of :func:`ball_sets` is the sorted oracle ball, and
    :func:`ball_union` marks their union."""
    indptr, nbr, _ = graph.adjacency()
    ptr, nodes = ball_sets(indptr, nbr, sources, layers)
    assert ptr.dtype == nodes.dtype == np.int64
    assert len(ptr) == len(sources) + 1 and ptr[0] == 0
    finder = BallFinder(indptr, nbr)
    union = np.zeros(graph.n, dtype=bool)
    for k, source in enumerate(sources):
        ball = np.sort(finder.ball(int(source), layers)[0])
        np.testing.assert_array_equal(nodes[ptr[k]:ptr[k + 1]], ball)
        union[ball] = True
    np.testing.assert_array_equal(ball_union(indptr, nbr, sources, layers),
                                  union)


@pytest.mark.parametrize("layers", [8, 9, 12, 20])
def test_ball_nodes_vector_layers_match_ball(layers):
    """From the grid center, depths >= 9 expand the 32-node ring at
    distance 8 (and every later ring) in one array operation each."""
    _assert_balls_match_the_oracle(_GRID_30, [15 * 30 + 15], layers)


@given(queries=st.lists(
    st.tuples(st.integers(0, _GRID_30.n - 1), st.integers(0, 20)),
    min_size=1, max_size=6,
))
@settings(max_examples=40, deadline=None)
def test_ball_nodes_matches_sorted_ball_property(queries):
    """ball_sets == sorted ball() for any source and depth up to 20 on
    a 30x30 grid, whose balls outgrow 400 nodes."""
    for source, layers in queries:
        _assert_balls_match_the_oracle(_GRID_30, [source], layers)


def test_ball_nodes_on_forest_star_and_isolated_node(forest_graph):
    for layers in (0, 1, 3):
        _assert_balls_match_the_oracle(forest_graph,
                                       range(forest_graph.n), layers)
    # From a leaf, layer 3 reaches the other 39 leaves in one level and
    # finds nothing new.
    star = Graph.from_edges(41, [(0, k, 1.0) for k in range(1, 41)])
    _assert_balls_match_the_oracle(star, [0, 1], 3)
    isolated = Graph.from_edges(4, [(0, 1, 1.0), (1, 2, 2.0)])
    indptr, nbr, _ = isolated.adjacency()
    ptr, nodes = ball_sets(indptr, nbr, [3], 20)
    assert nodes[ptr[0]:ptr[1]].tolist() == [3]
    _assert_balls_match_the_oracle(isolated, [3], 20)


@st.composite
def _graphs_and_sources(draw):
    """A graph on up to 30 nodes (isolated nodes and several components
    at low densities) and up to 12 ball centers, repeats allowed."""
    n = draw(st.integers(1, 30))
    density = draw(st.floats(0.0, 0.3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    u, v = np.nonzero(np.triu(rng.random((n, n)) < density, k=1))
    graph = Graph(n, u, v, np.ones(len(u)))
    sources = draw(st.lists(st.integers(0, n - 1), max_size=12))
    return graph, sources


@given(case=_graphs_and_sources(), layers=st.integers(0, 6))
@settings(max_examples=150, deadline=None)
def test_ball_sets_and_ball_union_match_the_loop_oracle(case, layers):
    """Every source's ball and the union of all, against one Python BFS
    per source: a repeated source gets a ball of its own each time, and
    no source gives no ball and an empty union."""
    graph, sources = case
    _assert_balls_match_the_oracle(graph, sources, layers)


def test_ball_sets_and_ball_union_of_no_source(medium_grid):
    indptr, nbr, _ = medium_grid.adjacency()
    ptr, nodes = ball_sets(indptr, nbr, [], 3)
    assert ptr.tolist() == [0] and len(nodes) == 0
    assert not ball_union(indptr, nbr, [], 3).any()


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
