"""Tests for connected-component utilities."""

from repro.graph import Graph, connected_components, is_connected
from repro.graph.components import component_roots


def test_connected_grid(small_grid):
    count, labels = connected_components(small_grid)
    assert count == 1
    assert (labels == 0).all()
    assert is_connected(small_grid)


def test_two_components(forest_graph):
    count, labels = connected_components(forest_graph)
    assert count == 2
    assert labels[0] == labels[1] == labels[2]
    assert labels[3] == labels[4] == labels[5]
    assert labels[0] != labels[3]
    assert not is_connected(forest_graph)


def test_isolated_nodes():
    g = Graph(4, [0], [1], [1.0])
    count, labels = connected_components(g)
    assert count == 3  # {0,1}, {2}, {3}


def test_component_roots(forest_graph):
    _, labels = connected_components(forest_graph)
    roots = component_roots(labels)
    assert roots.tolist() == [0, 3]


def test_labels_ordered_by_first_node():
    g = Graph(5, [3, 0], [4, 1], [1.0, 1.0])
    _, labels = connected_components(g)
    # Component of node 0 gets label 0, node 2 label 1, nodes 3-4 label 2.
    assert labels[0] == 0 and labels[2] == 1 and labels[3] == 2
