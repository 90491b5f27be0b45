"""Tests for eigensolver edge cases and fallback paths."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph import grid2d, regularization_shift, regularized_laplacian
from repro.linalg import (
    cholesky,
    generalized_lambda_max,
    power_iteration_lambda_max,
)
from repro.linalg.eigen import generalized_lambda_max as glm


def test_deterministic_across_calls(small_grid):
    """Seeded v0 makes repeated measurements bit-identical."""
    shift = regularization_shift(small_grid, 1e-5)
    L_G = regularized_laplacian(small_grid, shift)
    sub = small_grid.subgraph(np.arange(small_grid.edge_count) % 2 == 0)
    # Ensure spanning (fall back to half the edges + a path if needed).
    from repro.graph import connected_components
    count, _ = connected_components(sub)
    if count != 1:
        pytest.skip("random half-graph disconnected; covered elsewhere")
    L_S = regularized_laplacian(sub, shift)
    factor = cholesky(L_S)
    a = generalized_lambda_max(L_G, L_S, factor.solve, seed=5)
    b = generalized_lambda_max(L_G, L_S, factor.solve, seed=5)
    assert a == b


def test_refinement_never_decreases_estimate():
    """Power-step polishing is monotone: refined >= raw ARPACK value."""
    g = grid2d(9, 9, seed=3)
    shift = regularization_shift(g, 1e-5)
    L_G = regularized_laplacian(g, shift)
    from repro.tree import mewst

    L_T = regularized_laplacian(g.subgraph(mewst(g)), shift)
    factor = cholesky(L_T)
    raw = glm(L_G, L_T, factor.solve, refine_steps=0)
    refined = glm(L_G, L_T, factor.solve, refine_steps=10)
    assert refined >= raw - 1e-9


def test_power_iteration_standard_problem():
    """B = I reduces to the ordinary dominant eigenvalue."""
    A = sp.diags([1.0, 5.0, 3.0]).tocsr()
    value = power_iteration_lambda_max(
        A, lambda x: x, B=sp.eye(3, format="csr"), tol=1e-10, maxiter=2000
    )
    assert value == pytest.approx(5.0, rel=1e-3)


def test_power_iteration_without_b_matrix():
    A = sp.diags([2.0, 7.0]).tocsr()
    value = power_iteration_lambda_max(A, lambda x: x, tol=1e-10, maxiter=2000)
    assert value == pytest.approx(7.0, rel=1e-2)


def test_one_by_one_pencil():
    A = sp.csc_matrix(np.array([[4.0]]))
    B = sp.csc_matrix(np.array([[2.0]]))
    assert generalized_lambda_max(A, B, lambda x: x / 2.0) == pytest.approx(2.0)
