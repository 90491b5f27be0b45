"""Tests for generalized eigen-tools and the condition number."""

import numpy as np
import pytest
import scipy.linalg as sla

from repro import sparsify
from repro.graph import make_case, regularization_shift, regularized_laplacian
from repro.linalg import (
    cholesky,
    generalized_lambda_max,
    power_iteration_lambda_max,
    relative_condition_number,
)
from repro.tree import mewst


@pytest.fixture(scope="module")
def pencil(small_grid):
    """(L_G, L_S, dense lambda_max) for a tree subgraph of the grid."""
    shift = regularization_shift(small_grid, 1e-5)
    L_G = regularized_laplacian(small_grid, shift)
    tree = small_grid.subgraph(mewst(small_grid))
    L_S = regularized_laplacian(tree, shift)
    eigenvalues = sla.eigh(L_G.toarray(), L_S.toarray(), eigvals_only=True)
    return L_G, L_S, float(eigenvalues.max()), float(eigenvalues.min())


def test_arpack_matches_dense(pencil):
    L_G, L_S, lam_max, _ = pencil
    factor = cholesky(L_S)
    value = generalized_lambda_max(L_G, L_S, factor.solve, tol=1e-8)
    assert value == pytest.approx(lam_max, rel=1e-4)


def test_power_iteration_matches_dense(pencil):
    L_G, L_S, lam_max, _ = pencil
    factor = cholesky(L_S)
    value = power_iteration_lambda_max(
        L_G, factor.solve, B=L_S, tol=1e-8, maxiter=5000
    )
    assert value == pytest.approx(lam_max, rel=1e-2)


def test_lambda_min_is_one(pencil):
    """Footnote 1 regularization pins the smallest eigenvalue at 1."""
    _, _, _, lam_min = pencil
    assert lam_min == pytest.approx(1.0, abs=1e-6)


def test_condition_number_equals_lambda_max(pencil):
    L_G, L_S, lam_max, _ = pencil
    factor = cholesky(L_S)
    kappa = relative_condition_number(L_G, factor, L_S, tol=1e-8)
    assert kappa == pytest.approx(lam_max, rel=1e-4)


def test_kappa_takes_at_most_fifty_solves(monkeypatch):
    """ARPACK tests convergence only once its basis is full, so the basis
    size sets a floor on the solves: a 64-vector basis cost 74 on every
    pencil measured.  The pencil is perfbench's evolving-stream build."""
    graph, _ = make_case("ecology2", scale=0.1, seed=0)
    sparsifier = sparsify(graph, "proposed", edge_fraction=0.10,
                          rounds=5).sparsifier
    shift = regularization_shift(graph, 1e-6)
    L_G = regularized_laplacian(graph, shift, fmt="csr")
    L_P = regularized_laplacian(sparsifier, shift)
    factor = cholesky(L_P)
    solve = factor.solve
    calls = []

    def counted(b):
        calls.append(1)
        return solve(b)

    monkeypatch.setattr(factor, "solve", counted)
    kappa = relative_condition_number(L_G, factor, L_P, tol=1e-8)
    assert kappa > 1.0
    assert len(calls) <= 50


def test_identical_graphs_kappa_one(small_grid):
    shift = regularization_shift(small_grid, 1e-5)
    L = regularized_laplacian(small_grid, shift)
    factor = cholesky(L)
    kappa = relative_condition_number(L, factor, L, tol=1e-8)
    assert kappa == pytest.approx(1.0, abs=1e-5)


def test_kappa_decreases_as_edges_added(small_grid):
    """Densifying the subgraph can only improve (reduce) kappa."""
    shift = regularization_shift(small_grid, 1e-5)
    L_G = regularized_laplacian(small_grid, shift)
    tree_ids = mewst(small_grid)
    off = np.setdiff1d(np.arange(small_grid.edge_count), tree_ids)
    kappas = []
    for extra in (0, 10, 30):
        ids = np.sort(np.concatenate([tree_ids, off[:extra]]))
        L_S = regularized_laplacian(small_grid.subgraph(ids), shift)
        factor = cholesky(L_S)
        kappas.append(relative_condition_number(L_G, factor, L_S, tol=1e-7))
    assert kappas[0] >= kappas[1] >= kappas[2]


def test_tiny_pencil_dense_path():
    import scipy.sparse as sp

    A = sp.csc_matrix(np.array([[2.0, 0.0], [0.0, 3.0]]))
    B = sp.csc_matrix(np.eye(2))
    value = generalized_lambda_max(A, B, lambda x: x)
    assert value == pytest.approx(3.0)
