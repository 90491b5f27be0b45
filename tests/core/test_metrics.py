"""Tests for sparsifier quality metrics."""

import numpy as np
import pytest
import scipy.linalg as sla

from repro import list_methods, sparsify
from repro.core import evaluate_sparsifier, pcg_performance
from repro.exceptions import GraphError
from repro.graph import (
    Graph,
    grid2d,
    make_case,
    regularization_shift,
    regularized_laplacian,
)
from repro.linalg import cholesky
from repro.tree import mewst

TABLE1_CASES = ["ecology2", "thermal2", "parabolic", "tmt_sym", "G3_circuit",
                "NACA0015", "M6", "333SP", "AS365", "NLR"]


@pytest.fixture(scope="module")
def grid():
    return grid2d(12, 12, seed=71)


def test_report_fields(grid):
    result = sparsify(grid, "proposed", edge_fraction=0.10, rounds=2)
    report = evaluate_sparsifier(grid, result.sparsifier)
    assert report.nodes == grid.n
    assert report.graph_edges == grid.edge_count
    assert report.sparsifier_edges == result.edge_count
    assert report.kappa >= 1.0
    assert report.pcg_converged
    assert report.pcg_iterations > 0
    assert report.pcg_seconds >= 0
    assert report.factor_nnz > 0
    assert report.density == pytest.approx(result.edge_count / grid.n)


def test_self_sparsifier_is_perfect(grid):
    report = evaluate_sparsifier(grid, grid)
    assert report.kappa == pytest.approx(1.0, abs=1e-4)
    assert report.pcg_iterations <= 2


def test_pcg_performance_custom_rhs(grid):
    shift = regularization_shift(grid)
    L_G = regularized_laplacian(grid, shift, fmt="csr")
    tree = grid.subgraph(mewst(grid))
    factor = cholesky(regularized_laplacian(tree, shift))
    rhs = np.ones(grid.n)
    iters, seconds, result = pcg_performance(L_G, factor, rtol=1e-6, rhs=rhs)
    assert result.converged
    np.testing.assert_allclose(L_G @ result.x, rhs, atol=1e-3)


def test_lower_kappa_fewer_iterations(grid):
    """Quality ordering must show up in PCG iteration counts."""
    shift = regularization_shift(grid)
    sparse = sparsify(grid, "proposed", edge_fraction=0.01, rounds=1)
    dense = sparsify(grid, "proposed", edge_fraction=0.30, rounds=2)
    q_sparse = evaluate_sparsifier(grid, sparse.sparsifier, rtol=1e-8)
    q_dense = evaluate_sparsifier(grid, dense.sparsifier, rtol=1e-8)
    assert q_dense.kappa <= q_sparse.kappa
    assert q_dense.pcg_iterations <= q_sparse.pcg_iterations


def test_rejects_a_sparsifier_that_does_not_span(grid):
    """A subgraph with more components than G, or on other nodes, has no
    meaningful kappa: the shift alone would keep its pencil finite."""
    tree_ids = mewst(grid)
    split = grid.subgraph(tree_ids[1:])  # a forest of two trees
    with pytest.raises(GraphError, match="2 connected components but "
                                         "the graph has 1"):
        evaluate_sparsifier(grid, split)
    smaller = Graph.from_edges(grid.n - 1, [(0, 1, 1.0)])
    with pytest.raises(GraphError, match="nodes but the graph has"):
        evaluate_sparsifier(grid, smaller)


def test_accepts_a_forest_of_a_disconnected_graph():
    """Spanning means one component per component of G."""
    pair = Graph.from_edges(6, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 1.0),
                                (3, 4, 1.0), (4, 5, 3.0), (3, 5, 1.0)])
    forest = pair.subgraph(mewst(pair))
    report = evaluate_sparsifier(pair, forest)
    assert report.kappa >= 1.0
    assert report.pcg_converged


@pytest.mark.parametrize("case", TABLE1_CASES)
def test_kappa_is_the_top_eigenvalue_of_the_dense_pencil(case):
    """Every method's reported kappa equals the largest generalized
    eigenvalue of the dense pencil ``(L_G, L_P)`` (n = 400-800)."""
    graph, _ = make_case(case, scale=0.05, seed=0)
    n = graph.n
    shift = regularization_shift(graph, 1e-6)  # evaluate's reg_rel
    dense_g = regularized_laplacian(graph, shift).toarray()
    for method in list_methods():
        sparsifier = sparsify(graph, method).sparsifier
        report = evaluate_sparsifier(graph, sparsifier)
        dense_p = regularized_laplacian(sparsifier, shift).toarray()
        top = sla.eigh(dense_g, dense_p, eigvals_only=True,
                       subset_by_index=[n - 1, n - 1])[0]
        assert report.kappa == pytest.approx(top, rel=1e-7), method
