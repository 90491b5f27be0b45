"""Shared fixtures: small deterministic graphs and factored Laplacians."""

import pytest

from repro.graph import (
    Graph,
    grid2d,
    regularization_shift,
    regularized_laplacian,
    triangular_mesh,
)
from repro.linalg import cholesky
from repro.tree import RootedForest, mewst


@pytest.fixture(autouse=True)
def _isolated_cache_dir(tmp_path, monkeypatch):
    """Point the persistent artifact cache at a per-test directory.

    No test may read or pollute the developer's real ``~/.cache/repro``
    — and no test may go warm off another test's (or an earlier test
    run's) artifacts."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture(scope="session")
def small_grid():
    """8x8 grid with random weights (64 nodes, 112 edges)."""
    return grid2d(8, 8, weights="uniform", seed=11)


@pytest.fixture(scope="session")
def medium_grid():
    """20x20 grid (400 nodes) for slightly larger checks."""
    return grid2d(20, 20, weights="uniform", seed=12)


@pytest.fixture(scope="session")
def small_mesh():
    """Small Delaunay mesh (200 nodes)."""
    return triangular_mesh(200, shape="disk", weights="smooth", seed=13)


@pytest.fixture(scope="session")
def path_graph():
    """Path 0-1-2-3-4 with distinct weights (hand-checkable)."""
    return Graph.from_edges(5, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0), (3, 4, 0.5)])


@pytest.fixture(scope="session")
def triangle_graph():
    """Triangle with unequal weights."""
    return Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])


@pytest.fixture(scope="session")
def forest_graph():
    """Two disconnected components (tests forest-awareness)."""
    edges = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 1.5), (3, 4, 1.0), (4, 5, 3.0)]
    return Graph.from_edges(6, edges)


@pytest.fixture(scope="session")
def small_grid_tree(small_grid):
    return RootedForest(small_grid, mewst(small_grid))


@pytest.fixture(scope="session")
def small_grid_laplacians(small_grid):
    """(L_G, shift) for the small grid."""
    shift = regularization_shift(small_grid)
    return regularized_laplacian(small_grid, shift), shift


@pytest.fixture(scope="session")
def small_grid_factor(small_grid_laplacians):
    laplacian_g, _ = small_grid_laplacians
    return cholesky(laplacian_g)
