"""Tests for the Graph data structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graph import Graph


def test_edges_are_canonicalized():
    g = Graph(3, [2, 1], [0, 0], [1.0, 2.0])
    assert (g.u <= g.v).all()
    assert g.edge_key_set() == {(0, 2), (0, 1)}


def test_edge_and_node_counts(small_grid):
    assert small_grid.n == 64
    assert small_grid.edge_count == 2 * 8 * 7


def test_from_edges_roundtrip(triangle_graph):
    assert triangle_graph.edge_count == 3
    assert triangle_graph.n == 3


def test_validation_rejects_self_loop():
    with pytest.raises(GraphError):
        Graph(3, [0], [0], [1.0])


def test_validation_rejects_duplicate_edges():
    with pytest.raises(GraphError):
        Graph(3, [0, 1], [1, 0], [1.0, 2.0])


def test_validation_rejects_nonpositive_weight():
    with pytest.raises(GraphError):
        Graph(3, [0], [1], [0.0])
    with pytest.raises(GraphError):
        Graph(3, [0], [1], [-1.0])


def test_validation_rejects_out_of_range():
    with pytest.raises(GraphError):
        Graph(3, [0], [5], [1.0])


def test_validation_rejects_length_mismatch():
    with pytest.raises(GraphError):
        Graph(3, [0, 1], [1], [1.0])


def test_weighted_degrees(triangle_graph):
    deg = triangle_graph.weighted_degrees()
    np.testing.assert_allclose(deg, [4.0, 3.0, 5.0])


def test_degrees(path_graph):
    np.testing.assert_array_equal(path_graph.degrees(), [1, 2, 2, 2, 1])


def test_adjacency_structure(path_graph):
    indptr, nbr, eid = path_graph.adjacency()
    assert len(indptr) == path_graph.n + 1
    assert indptr[-1] == 2 * path_graph.edge_count
    # Node 1's neighbors are 0 and 2.
    assert set(path_graph.neighbors(1).tolist()) == {0, 2}


def test_adjacency_edge_ids_consistent(small_grid):
    indptr, nbr, eid = small_grid.adjacency()
    for node in (0, 17, 63):
        for k in range(indptr[node], indptr[node + 1]):
            edge = eid[k]
            endpoints = {small_grid.u[edge], small_grid.v[edge]}
            assert endpoints == {node, nbr[k]}


def test_subgraph_by_mask(small_grid):
    mask = np.zeros(small_grid.edge_count, dtype=bool)
    mask[:10] = True
    sub = small_grid.subgraph(mask)
    assert sub.edge_count == 10
    assert sub.n == small_grid.n


def test_subgraph_by_ids(small_grid):
    sub = small_grid.subgraph(np.array([3, 5, 7]))
    assert sub.edge_count == 3
    np.testing.assert_allclose(sub.w, small_grid.w[[3, 5, 7]])


def test_subgraph_mask_length_mismatch(small_grid):
    with pytest.raises(GraphError):
        small_grid.subgraph(np.zeros(3, dtype=bool))


def test_reweighted(triangle_graph):
    new = triangle_graph.reweighted([5.0, 6.0, 7.0])
    np.testing.assert_allclose(new.w, [5.0, 6.0, 7.0])
    assert new.edge_key_set() == triangle_graph.edge_key_set()
    with pytest.raises(GraphError):
        triangle_graph.reweighted([1.0])


def test_to_scipy_adjacency_symmetric(small_grid):
    adjacency = small_grid.to_scipy_adjacency()
    diff = adjacency - adjacency.T
    assert abs(diff.data).max() if diff.nnz else 0 == 0


def test_edge_lookup(triangle_graph):
    lookup = triangle_graph.edge_lookup()
    for edge_id, (a, b) in enumerate(zip(triangle_graph.u, triangle_graph.v)):
        assert lookup[(int(a), int(b))] == edge_id


def test_single_node_graph():
    g = Graph(1, [], [], [])
    assert g.edge_count == 0
    assert g.weighted_degrees().tolist() == [0.0]


@given(
    n=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=25, deadline=None)
def test_random_graph_invariants(n, seed):
    """Adjacency is an involution: each edge appears exactly twice."""
    rng = np.random.default_rng(seed)
    pairs = set()
    for _ in range(rng.integers(0, n * 2)):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    pairs = sorted(pairs)
    if pairs:
        u, v = zip(*pairs)
    else:
        u, v = [], []
    g = Graph(n, u, v, np.ones(len(pairs)))
    indptr, nbr, eid = g.adjacency()
    assert indptr[-1] == 2 * g.edge_count
    # Degree sum equals twice the edge count.
    assert g.degrees().sum() == 2 * g.edge_count
