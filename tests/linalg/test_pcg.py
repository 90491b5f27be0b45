"""Tests for the PCG solver."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ConvergenceError
from repro.graph import regularization_shift, regularized_laplacian
from repro.linalg import cholesky, pcg


@pytest.fixture(scope="module")
def system(small_grid):
    shift = regularization_shift(small_grid, 1e-3)
    A = regularized_laplacian(small_grid, shift)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(small_grid.n)
    return A, b


def test_unpreconditioned_converges(system):
    A, b = system
    result = pcg(A, b, rtol=1e-8, maxiter=5000)
    assert result.converged
    np.testing.assert_allclose(A @ result.x, b, atol=1e-5)


def test_exact_preconditioner_one_iteration(system):
    A, b = system
    factor = cholesky(A)
    result = pcg(A, b, M_solve=factor.solve, rtol=1e-8)
    assert result.converged
    assert result.iterations <= 2


def test_preconditioner_reduces_iterations(system, small_grid):
    A, b = system
    plain = pcg(A, b, rtol=1e-8, maxiter=5000)
    # Jacobi preconditioner.
    inv_diag = 1.0 / A.diagonal()
    jacobi = pcg(A, b, M_solve=lambda r: inv_diag * r, rtol=1e-8, maxiter=5000)
    assert jacobi.converged
    assert jacobi.iterations <= plain.iterations


def test_zero_rhs(system):
    A, _ = system
    result = pcg(A, np.zeros(A.shape[0]))
    assert result.converged
    assert result.iterations == 0
    np.testing.assert_allclose(result.x, 0)


def test_initial_guess_exact(system):
    A, b = system
    exact = np.linalg.solve(A.toarray(), b)
    result = pcg(A, b, x0=exact, rtol=1e-6)
    assert result.converged
    assert result.iterations == 0


def test_warm_start_helps(system):
    A, b = system
    cold = pcg(A, b, rtol=1e-6, maxiter=5000)
    nearly = np.linalg.solve(A.toarray(), b) + 1e-6
    warm = pcg(A, b, x0=nearly, rtol=1e-6, maxiter=5000)
    assert warm.iterations < cold.iterations


def test_callable_operator(system):
    A, b = system
    A_csr = A.tocsr()
    result = pcg(lambda v: A_csr @ v, b, rtol=1e-8, maxiter=5000)
    assert result.converged


def test_relative_residual_criterion(system):
    A, b = system
    result = pcg(A, b, rtol=1e-3, maxiter=5000)
    assert result.converged
    assert result.relative_residual <= 1e-3


def test_history_recording(system):
    A, b = system
    result = pcg(A, b, rtol=1e-6, maxiter=5000, record_history=True)
    assert len(result.residual_history) == result.iterations + 1
    assert result.residual_history[-1] <= 1e-6 * result.rhs_norm


def test_maxiter_cap(system):
    A, b = system
    result = pcg(A, b, rtol=1e-14, maxiter=2)
    assert not result.converged
    assert result.iterations == 2


def test_raise_on_fail(system):
    A, b = system
    with pytest.raises(ConvergenceError):
        pcg(A, b, rtol=1e-14, maxiter=2, raise_on_fail=True)


def test_indefinite_preconditioner_stops_unconverged(system):
    """``M = -I`` would silently replay plain CG; PCG needs SPD ``M``."""
    A, b = system
    result = pcg(A, b, M_solve=lambda r: -r, rtol=1e-8, maxiter=5000)
    assert not result.converged


def test_rejects_bad_operator():
    with pytest.raises(TypeError):
        pcg("not a matrix", np.ones(3))


def test_iteration_count_scales_with_sqrt_kappa():
    """CG iterations grow with condition number (sanity on theory)."""
    n = 60
    easy = sp.diags(np.linspace(1, 4, n)).tocsr()
    hard = sp.diags(np.linspace(1, 400, n)).tocsr()
    b = np.ones(n)
    easy_iters = pcg(easy, b, rtol=1e-10, maxiter=10 * n).iterations
    hard_iters = pcg(hard, b, rtol=1e-10, maxiter=10 * n).iterations
    assert hard_iters > easy_iters
