"""Tests for Laplacian assembly and regularization (Eq. 1, footnote 1)."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from repro.exceptions import GraphError
from repro.graph import (
    Graph,
    graph_from_sdd_matrix,
    incidence_matrix,
    laplacian,
    regularization_shift,
    regularized_laplacian,
)


def test_laplacian_matches_definition(triangle_graph):
    L = laplacian(triangle_graph).toarray()
    expected = np.array(
        [[4.0, -1.0, -3.0], [-1.0, 3.0, -2.0], [-3.0, -2.0, 5.0]]
    )
    np.testing.assert_allclose(L, expected)


def test_laplacian_row_sums_zero(small_grid):
    L = laplacian(small_grid)
    np.testing.assert_allclose(np.asarray(L.sum(axis=1)).ravel(), 0, atol=1e-12)


def test_laplacian_psd(small_mesh):
    L = laplacian(small_mesh).toarray()
    eigenvalues = np.linalg.eigvalsh(L)
    assert eigenvalues.min() > -1e-9


def test_laplacian_quadratic_form(small_grid):
    """x^T L x == sum w_ij (x_i - x_j)^2."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(small_grid.n)
    L = laplacian(small_grid)
    direct = float(x @ (L @ x))
    by_edges = float(
        np.sum(small_grid.w * (x[small_grid.u] - x[small_grid.v]) ** 2)
    )
    assert direct == pytest.approx(by_edges, rel=1e-10)


def test_laplacian_scalar_shift(triangle_graph):
    L = laplacian(triangle_graph, shift=0.5).toarray()
    np.testing.assert_allclose(np.diag(L), [4.5, 3.5, 5.5])


def test_incidence_matrix_btb_equals_laplacian(small_grid):
    B = incidence_matrix(small_grid, weighted=True)
    L = laplacian(small_grid)
    np.testing.assert_allclose((B.T @ B).toarray(), L.toarray(), atol=1e-12)


def test_incidence_unweighted_rows(path_graph):
    B = incidence_matrix(path_graph, weighted=False)
    assert B.shape == (path_graph.edge_count, path_graph.n)
    np.testing.assert_allclose(np.asarray(B.sum(axis=1)).ravel(), 0)


def test_regularization_shift_positive(small_grid):
    shift = regularization_shift(small_grid)
    assert (shift > 0).all()
    assert shift.shape == (small_grid.n,)


def test_regularization_shift_rejects_bad_rel(small_grid):
    for rel in (0, -1e-6, np.nan, np.inf):
        with pytest.raises(GraphError):
            regularization_shift(small_grid, rel=rel)


def test_regularization_handles_isolated_nodes():
    g = Graph(3, [0], [1], [2.0])  # node 2 isolated
    shift = regularization_shift(g)
    assert shift[2] > 0


def test_smallest_generalized_eigenvalue_is_one(small_grid):
    """Footnote 1: same shift on L_G and L_S pins lambda_min at 1."""
    shift = regularization_shift(small_grid, rel=1e-5)
    L_G = regularized_laplacian(small_grid, shift).toarray()
    sub = small_grid.subgraph(np.arange(small_grid.edge_count) % 3 != 0)
    L_S = regularized_laplacian(sub, shift).toarray()
    eigenvalues = sla.eigh(L_G, L_S, eigvals_only=True)
    assert eigenvalues.min() == pytest.approx(1.0, abs=1e-6)
    assert eigenvalues.max() >= 1.0


def test_regularized_laplacian_validates_shift(small_grid):
    for bad in (0.0, np.nan, np.inf):
        shift = np.ones(small_grid.n)
        shift[3] = bad
        with pytest.raises(GraphError):
            regularized_laplacian(small_grid, shift)
    with pytest.raises(GraphError):
        regularized_laplacian(small_grid, np.ones(3))


def test_graph_from_sdd_matrix_roundtrip(small_grid):
    excess_in = np.linspace(0.1, 0.2, small_grid.n)
    L = laplacian(small_grid, shift=excess_in)
    g, excess = graph_from_sdd_matrix(L)
    assert g.edge_key_set() == small_grid.edge_key_set()
    np.testing.assert_allclose(excess, excess_in, atol=1e-12)


def test_graph_from_sdd_matrix_rejects_positive_offdiag():
    bad = sp.csr_matrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
    with pytest.raises(GraphError):
        graph_from_sdd_matrix(bad)
