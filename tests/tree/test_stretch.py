"""Tests for stretch diagnostics."""

import numpy as np
import pytest

from repro.tree import (
    RootedForest,
    bfs_spanning_forest,
    edge_stretches,
    mewst,
    total_stretch,
)


def test_tree_edges_have_stretch_one(small_grid, small_grid_tree):
    stretches = edge_stretches(small_grid, small_grid_tree)
    tree_ids = small_grid_tree.edge_ids
    np.testing.assert_allclose(stretches[tree_ids], 1.0, rtol=1e-9)


def test_off_tree_stretch_positive(small_grid, small_grid_tree):
    stretches = edge_stretches(small_grid, small_grid_tree)
    assert (stretches > 0).all()


def test_triangle_stretch_by_hand(triangle_graph):
    # Tree = edges (1,2,w=2) and (0,2,w=3); off-tree edge (0,1,w=1):
    # path resistance = 1/2 + 1/3 = 5/6, stretch = 1 * 5/6.
    forest = RootedForest(triangle_graph, np.array([1, 2]))
    stretches = edge_stretches(triangle_graph, forest)
    assert stretches[0] == pytest.approx(5.0 / 6.0)


def test_total_and_average(small_grid, small_grid_tree):
    total = total_stretch(small_grid, small_grid_tree)
    avg = edge_stretches(small_grid, small_grid_tree).mean()
    assert total == pytest.approx(avg * small_grid.edge_count)
    # Tree edges contribute exactly n-1 to the total.
    assert total >= small_grid.n - 1


def test_mewst_not_worse_than_bfs_tree(medium_grid):
    """MEWST targets low stretch; BFS trees ignore weights entirely."""
    mew = RootedForest(medium_grid, mewst(medium_grid))
    bfs = RootedForest(medium_grid, bfs_spanning_forest(medium_grid))
    assert total_stretch(medium_grid, mew) <= total_stretch(medium_grid, bfs) * 1.05
