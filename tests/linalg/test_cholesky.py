"""Tests for the sparse Cholesky factorizations (SuperLU and its pure-Python fallback)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import FactorizationError
from repro.graph import laplacian, regularized_laplacian, regularization_shift
from repro.linalg import cholesky


@pytest.fixture(scope="module", params=["python", "superlu"])
def backend(request):
    return request.param


def _spd_matrix(graph, rel=1e-3):
    shift = regularization_shift(graph, rel)
    return regularized_laplacian(graph, shift)


def test_reconstruction(small_grid, backend):
    A = _spd_matrix(small_grid)
    factor = cholesky(A, backend=backend, check=True)
    reordered = A[factor.perm][:, factor.perm].toarray()
    rebuilt = (factor.L @ factor.L.T).toarray()
    np.testing.assert_allclose(rebuilt, reordered, atol=1e-8)


def test_solve_matches_dense(small_grid, backend):
    A = _spd_matrix(small_grid)
    factor = cholesky(A, backend=backend)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(small_grid.n)
    x = factor.solve(b)
    expected = np.linalg.solve(A.toarray(), b)
    np.testing.assert_allclose(x, expected, rtol=1e-6, atol=1e-9)


def test_solve_multiple_rhs(small_grid, backend):
    A = _spd_matrix(small_grid)
    factor = cholesky(A, backend=backend)
    rng = np.random.default_rng(1)
    B = rng.standard_normal((small_grid.n, 3))
    X = factor.solve(B)
    np.testing.assert_allclose(A @ X, B, atol=1e-7)


def test_factor_is_lower_triangular(small_grid, backend):
    A = _spd_matrix(small_grid)
    factor = cholesky(A, backend=backend)
    coo = factor.L.tocoo()
    assert (coo.row >= coo.col).all()
    assert (factor.L.diagonal() > 0).all()


def test_mmatrix_factor_has_nonpositive_offdiagonals(small_grid, backend):
    """Proposition 1's premise: Cholesky factor of an SDD M-matrix."""
    A = _spd_matrix(small_grid)
    factor = cholesky(A, backend=backend)
    coo = factor.L.tocoo()
    off = coo.row != coo.col
    assert (coo.data[off] <= 1e-12).all()


def test_rejects_indefinite(backend):
    A = sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1
    with pytest.raises(FactorizationError):
        cholesky(A, backend=backend)


def test_rejects_nonsquare():
    with pytest.raises(ValueError):
        cholesky(sp.random(3, 4, format="csc"))


def test_rejects_unknown_backend(small_grid):
    with pytest.raises(FactorizationError):
        cholesky(_spd_matrix(small_grid), backend="cuda")


def test_python_orderings_all_work(small_grid):
    A = _spd_matrix(small_grid)
    rng = np.random.default_rng(2)
    b = rng.standard_normal(small_grid.n)
    expected = np.linalg.solve(A.toarray(), b)
    for ordering in ("natural", "rcm", "mindeg"):
        factor = cholesky(A, backend="python", ordering=ordering)
        np.testing.assert_allclose(factor.solve(b), expected, rtol=1e-6, atol=1e-9)


def test_python_rejects_unknown_ordering(small_grid):
    with pytest.raises(FactorizationError):
        cholesky(_spd_matrix(small_grid), backend="python", ordering="amd2000")


def test_auto_prefers_superlu(small_grid):
    factor = cholesky(_spd_matrix(small_grid), backend="auto")
    assert factor.backend == "superlu"


def test_nnz_and_memory(small_grid, backend):
    factor = cholesky(_spd_matrix(small_grid), backend=backend)
    assert factor.nnz >= small_grid.n  # at least the diagonal
    assert factor.memory_bytes() > 0


def test_permutation_is_valid(small_grid, backend):
    factor = cholesky(_spd_matrix(small_grid), backend=backend)
    assert sorted(factor.perm.tolist()) == list(range(small_grid.n))
    np.testing.assert_array_equal(
        factor.iperm[factor.perm], np.arange(small_grid.n)
    )


def test_backends_agree(small_mesh):
    A = _spd_matrix(small_mesh)
    rng = np.random.default_rng(3)
    b = rng.standard_normal(small_mesh.n)
    x_py = cholesky(A, backend="python").solve(b)
    x_slu = cholesky(A, backend="superlu").solve(b)
    np.testing.assert_allclose(x_py, x_slu, rtol=1e-6, atol=1e-10)


def test_solve_lower_upper_consistency(small_grid, backend):
    """solve == P^T L^-T L^-1 P applied manually."""
    A = _spd_matrix(small_grid)
    factor = cholesky(A, backend=backend)
    rng = np.random.default_rng(4)
    b = rng.standard_normal(small_grid.n)
    y = factor.solve_lower(b[factor.perm])
    z = factor.solve_upper(y)
    x = np.empty_like(z)
    x[factor.perm] = z
    np.testing.assert_allclose(x, factor.solve(b), rtol=1e-8, atol=1e-10)


def test_auto_falls_back_to_python_when_superlu_pivots(small_grid,
                                                       monkeypatch):
    """An asymmetric SuperLU pivot sends ``cholesky`` — and with it
    every sparsifier — to the pure-Python factorization."""
    import importlib

    from repro import sparsify

    A = _spd_matrix(small_grid)
    b = np.random.default_rng(5).standard_normal(small_grid.n)
    expected = cholesky(A).solve(b)
    calls = []

    def pivoted(matrix):
        calls.append(matrix.shape)
        raise FactorizationError("SuperLU pivoted asymmetrically")

    module = importlib.import_module("repro.linalg.cholesky")
    monkeypatch.setattr(module, "_factor_superlu", pivoted)
    factor = cholesky(A)
    assert factor.backend == "python"
    np.testing.assert_allclose(factor.solve(b), expected, rtol=1e-10)

    calls.clear()
    result = sparsify(small_grid, method="proposed", edge_fraction=0.1,
                      rounds=3)
    assert len(calls) == 2  # rounds 2 and 3 each factor once
    assert result.edge_count == small_grid.n - 1 + round(0.1 * small_grid.n)
