"""Tests for the SuperLU Cholesky factorization."""

import importlib

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import FactorizationError
from repro.graph import regularized_laplacian, regularization_shift
from repro.linalg import cholesky


def _spd_matrix(graph, rel=1e-3):
    shift = regularization_shift(graph, rel)
    return regularized_laplacian(graph, shift)


def test_reconstruction(small_grid):
    A = _spd_matrix(small_grid)
    factor = cholesky(A)
    reordered = A[factor.perm][:, factor.perm].toarray()
    rebuilt = (factor.L @ factor.L.T).toarray()
    np.testing.assert_allclose(rebuilt, reordered, atol=1e-8)


def test_solve_matches_dense(small_grid):
    A = _spd_matrix(small_grid)
    factor = cholesky(A)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(small_grid.n)
    x = factor.solve(b)
    expected = np.linalg.solve(A.toarray(), b)
    np.testing.assert_allclose(x, expected, rtol=1e-6, atol=1e-9)


def test_solve_multiple_rhs(small_grid):
    A = _spd_matrix(small_grid)
    factor = cholesky(A)
    rng = np.random.default_rng(1)
    B = rng.standard_normal((small_grid.n, 3))
    X = factor.solve(B)
    np.testing.assert_allclose(A @ X, B, atol=1e-7)


def test_factor_is_lower_triangular(small_grid):
    A = _spd_matrix(small_grid)
    factor = cholesky(A)
    coo = factor.L.tocoo()
    assert (coo.row >= coo.col).all()
    assert (factor.L.diagonal() > 0).all()


def test_mmatrix_factor_has_nonpositive_offdiagonals(small_grid):
    """Proposition 1's premise: Cholesky factor of an SDD M-matrix."""
    A = _spd_matrix(small_grid)
    factor = cholesky(A)
    coo = factor.L.tocoo()
    off = coo.row != coo.col
    assert (coo.data[off] <= 1e-12).all()


def test_rejects_indefinite():
    A = sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1
    with pytest.raises(FactorizationError, match="not positive definite"):
        cholesky(A)


def test_rejects_exactly_singular():
    A = sp.csc_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(FactorizationError, match="SuperLU failed"):
        cholesky(A)


def test_rejects_nonsquare():
    with pytest.raises(ValueError):
        cholesky(sp.random(3, 4, format="csc"))


def test_nnz_and_memory(small_grid):
    factor = cholesky(_spd_matrix(small_grid))
    assert factor.nnz >= small_grid.n  # at least the diagonal
    assert factor.memory_bytes() > 0


def test_permutation_is_valid(small_grid):
    factor = cholesky(_spd_matrix(small_grid))
    assert sorted(factor.perm.tolist()) == list(range(small_grid.n))
    np.testing.assert_array_equal(
        factor.iperm[factor.perm], np.arange(small_grid.n)
    )


def test_asymmetric_pivot_raises():
    """A zero diagonal makes SuperLU pivot off it; the row and column
    permutations then disagree and no Cholesky factor exists."""
    A = sp.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(FactorizationError,
                       match="SuperLU pivoted asymmetrically"):
        cholesky(A)


def test_proposed_factors_once_per_later_round(small_grid, monkeypatch):
    """Rounds 2 and 3 of a ``proposed`` run each factor once through
    :func:`repro.linalg.cholesky`; the tree phase factors nothing."""
    from repro import sparsify

    module = importlib.import_module("repro.linalg.cholesky")
    splu = module.splu
    calls = []

    def counted(matrix, **options):
        calls.append(matrix.shape)
        return splu(matrix, **options)

    monkeypatch.setattr(module, "splu", counted)
    result = sparsify(small_grid, method="proposed", edge_fraction=0.1,
                      rounds=3)
    assert len(calls) == 2
    assert result.edge_count == small_grid.n - 1 + round(0.1 * small_grid.n)
