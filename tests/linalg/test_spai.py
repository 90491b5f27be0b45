"""Tests for Algorithm 1 (sparse approximate inverse of the Cholesky factor)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import repro.linalg.spai as spai_module
from repro.exceptions import FactorizationError
from repro.graph import (Graph, grid2d, regularization_shift,
                         regularized_laplacian)
from repro.linalg import cholesky, sparse_approximate_inverse


@pytest.fixture(scope="module")
def factor(small_grid_for_spai=None):
    g = grid2d(10, 10, seed=21)
    shift = regularization_shift(g, 1e-4)
    return cholesky(regularized_laplacian(g, shift))


def test_exact_when_unpruned(factor):
    Z = sparse_approximate_inverse(factor.L, delta=0.0, keep_threshold=10**9)
    expected = np.linalg.inv(factor.L.toarray())
    np.testing.assert_allclose(Z.toarray(), expected, atol=1e-10)


def test_lower_triangular_and_nonnegative(factor):
    """Proposition 1: Z = L^-1 is lower triangular with entries >= 0."""
    Z = sparse_approximate_inverse(factor.L, delta=0.1)
    coo = Z.tocoo()
    assert (coo.row >= coo.col).all()
    assert (coo.data >= 0).all()


def test_pruning_reduces_nnz(factor):
    full = sparse_approximate_inverse(factor.L, delta=0.0, keep_threshold=10**9)
    pruned = sparse_approximate_inverse(factor.L, delta=0.1)
    assert pruned.nnz < full.nnz


def spai_nnz_profile(L, deltas):
    """nnz(Z~) for each pruning threshold."""
    return [
        int(sparse_approximate_inverse(L, delta=float(d)).nnz) for d in deltas
    ]


def test_monotone_in_delta(factor):
    profile = spai_nnz_profile(factor.L, [0.02, 0.05, 0.1, 0.3])
    assert profile == sorted(profile, reverse=True)


def test_diagonal_preserved(factor):
    """Z~ keeps the exact diagonal 1/L_jj (never pruned below max? the
    diagonal is the column's first contribution and stays positive)."""
    Z = sparse_approximate_inverse(factor.L, delta=0.1)
    # Every column must keep at least one entry.
    lengths = np.diff(Z.indptr)
    assert (lengths >= 1).all()


def test_small_columns_kept_exactly(factor):
    """Columns with <= log n entries are not pruned (Alg. 1, line 3)."""
    n = factor.n
    exact = np.linalg.inv(factor.L.toarray())
    Z = sparse_approximate_inverse(factor.L, delta=0.99)
    keep = max(1, int(np.ceil(np.log(n))))
    for j in range(n - 1, -1, -1):
        col_exact = exact[:, j]
        nnz_exact = int(np.sum(np.abs(col_exact) > 0))
        if nnz_exact <= keep:
            col = Z[:, j].toarray().ravel()
            np.testing.assert_allclose(col, col_exact, atol=1e-10)
        else:
            break  # earlier columns depend on pruned later ones


def _star_column(values):
    """A lower triangle whose column 0 of ``L^{-1}`` is ``[1, *values]``.

    ``L_00 = 1`` and ``L_i0 = -values[i - 1]``; every other column is
    the identity's, so ``z_0 = e_0 + sum_i values[i - 1] e_i``.
    """
    n = len(values) + 1
    dense = np.eye(n)
    dense[1:, 0] = -np.asarray(values, dtype=float)
    return sp.csc_matrix(dense)


def _kept_rows(L, delta, keep_threshold):
    """Column 0's rows in production and in the column-loop oracle."""
    got = sparse_approximate_inverse(L, delta=delta,
                                     keep_threshold=keep_threshold)
    expected = oracles.sparse_approximate_inverse(
        L, delta=delta, keep_threshold=keep_threshold)
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, name),
                                      getattr(expected, name), err_msg=name)
    return got.indices[got.indptr[0]:got.indptr[1]].tolist()


def test_floor_keeps_the_lowest_rows_among_ties():
    """Three entries tie at the k-th largest value and two places are
    left: the floor keeps the entries above it and the two lowest tied
    rows (``np.argpartition`` keeps rows 1 and 3 here)."""
    L = _star_column([0.5, 0.5, 0.5, 0.7, 0.1, 0.7])
    # delta keeps row 0 alone; k = 5 keeps rows 0, 4 and 6 (above the
    # 5th largest value, 0.5) and rows 1 and 2 of the tied rows 1-3.
    assert _kept_rows(L, delta=0.9, keep_threshold=5) == [0, 1, 2, 4, 6]


def test_floor_among_entries_that_all_tie():
    """Every entry below the maximum is equal and delta keeps only the
    maximum: the floor fills its places with the lowest rows."""
    L = _star_column([0.05] * 6)
    assert _kept_rows(L, delta=0.1, keep_threshold=3) == [0, 1, 2]
    assert _kept_rows(L, delta=0.1, keep_threshold=6) == [0, 1, 2, 3, 4, 5]


def test_error_bound_eq19(factor):
    """Eq. (19): column errors do not amplify through the recurrence.

    If every previously computed column has error <= eps, the new
    unpruned column z*_j also has error <= eps.  We verify the global
    consequence: max column error of Z~ <= max *pruning* error injected
    at any single column.
    """
    L = factor.L
    delta = 0.1
    Z = sparse_approximate_inverse(L, delta=delta)
    exact = np.linalg.inv(L.toarray())
    col_errors = np.linalg.norm(Z.toarray() - exact, axis=0)
    # The pruning step drops entries < delta * max of a nonnegative
    # column whose max is <= max(Z) — bound the injected error.
    injected = []
    dense_z = Z.toarray()
    for j in range(factor.n):
        col = dense_z[:, j]
        maximum = col.max() if col.max() > 0 else 0.0
        injected.append(delta * maximum * np.sqrt(factor.n))
    assert col_errors.max() <= max(injected) + 1e-9


def test_approximation_quality_at_default_delta(factor):
    Z = sparse_approximate_inverse(factor.L, delta=0.1)
    exact = np.linalg.inv(factor.L.toarray())
    rel = np.abs(Z.toarray() - exact).max() / np.abs(exact).max()
    assert rel < 0.25


def test_applies_spd_inverse_roughly(factor):
    """Z~ Z~^T approximates (L L^T)^{-1} in action."""
    Z = sparse_approximate_inverse(factor.L, delta=0.05)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(factor.n)
    approx = Z.T @ (Z @ b)
    A = (factor.L @ factor.L.T).toarray()
    exact = np.linalg.solve(A, b)
    cos = approx @ exact / (np.linalg.norm(approx) * np.linalg.norm(exact))
    assert cos > 0.98


def test_rejects_bad_delta(factor):
    with pytest.raises(ValueError):
        sparse_approximate_inverse(factor.L, delta=1.0)
    with pytest.raises(ValueError):
        sparse_approximate_inverse(factor.L, delta=-0.1)


def test_rejects_missing_diagonal():
    L = sp.csc_matrix(np.array([[0.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(FactorizationError):
        sparse_approximate_inverse(L)


def test_identity_factor():
    Z = sparse_approximate_inverse(sp.eye(6, format="csc"))
    np.testing.assert_allclose(Z.toarray(), np.eye(6))


@given(seed=st.integers(0, 30), delta=st.sampled_from([0.0, 0.05, 0.2]))
@settings(max_examples=12, deadline=None)
def test_random_grids_nonneg_lower(seed, delta):
    g = grid2d(5, 5, seed=seed)
    shift = regularization_shift(g, 1e-3)
    f = cholesky(regularized_laplacian(g, shift))
    Z = sparse_approximate_inverse(f.L, delta=delta)
    coo = Z.tocoo()
    assert (coo.data >= -1e-12).all()
    assert (coo.row >= coo.col).all()


def _assert_same_bits(got, expected):
    """Equal CSC arrays: offsets, rows, and every value's bits (stored
    zeros included)."""
    for name in ("indptr", "indices"):
        ours, theirs = getattr(got, name), getattr(expected, name)
        assert ours.dtype == theirs.dtype, name
        np.testing.assert_array_equal(ours, theirs, err_msg=name)
    np.testing.assert_array_equal(got.data.view(np.int64),
                                  expected.data.view(np.int64))


@given(n=st.integers(2, 40), seed=st.integers(0, 2 ** 16),
       extra=st.floats(0.0, 2.0),
       delta=st.sampled_from([0.0, 0.05, 0.1, 0.5]),
       keep_threshold=st.sampled_from([None, 1, 3]))
@settings(max_examples=60, deadline=None)
def test_levels_as_products_equal_both_oracles(n, seed, extra, delta,
                                               keep_threshold):
    """Each level as one sparse product equals the level merge it
    replaced and the column loop, bit for bit, on factors of random
    SDD matrices whose weights span 1e-12 to 1e12."""
    rng = np.random.default_rng(seed)
    tree = [(int(rng.integers(0, k)), k) for k in range(1, n)]
    more = rng.integers(0, n, size=(int(extra * n), 2))
    pairs = {(min(a, b), max(a, b)) for a, b in tree + more.tolist()
             if a != b}
    u, v = np.array(sorted(pairs)).T
    w = 10.0 ** rng.uniform(-12, 12, len(u))
    graph = Graph(n, u, v, w)
    L = cholesky(regularized_laplacian(
        graph, regularization_shift(graph, 1e-6))).L
    got = sparse_approximate_inverse(L, delta, keep_threshold)
    _assert_same_bits(got, oracles.level_merge_spai(L, delta,
                                                    keep_threshold))
    _assert_same_bits(got, oracles.sparse_approximate_inverse(
        L, delta, keep_threshold))


def test_sums_that_underflow_to_zero_stay_stored(monkeypatch):
    """A factor whose products underflow: column 1 of ``Z`` is
    ``e_1 + (1e-300 * 1e-300) e_2`` and column 0 adds that stored zero
    again, so two sums are exactly 0.0 and the product kernel drops
    them.  ``Z`` still equals both oracles, stored zeros included, and
    comes from the product alone: the level merge is gone."""
    L = sp.csc_matrix(np.array([[1.0, 0.0, 0.0, 0.0],
                                [-1.0, 1.0, 0.0, 0.0],
                                [0.0, -1e-300, 1e300, 0.0],
                                [-0.5, 0.0, 0.0, 1.0]]))
    products = []
    product = spai_module.sparse_product

    def spy(*args):
        products.append(product(*args))
        return products[-1]

    monkeypatch.setattr(spai_module, "sparse_product", spy)
    for delta, keep_threshold in ((0.0, None), (0.1, 2), (0.1, None)):
        got = sparse_approximate_inverse(L, delta, keep_threshold)
        for oracle in (oracles.level_merge_spai,
                       oracles.sparse_approximate_inverse):
            _assert_same_bits(got, oracle(L, delta, keep_threshold))
    assert not hasattr(spai_module, "_merge_terms")
    zeros = sum(int(np.count_nonzero(data == 0.0)) for _, _, data in products)
    assert zeros >= 2
    stored = sparse_approximate_inverse(L, 0.0)
    assert np.count_nonzero(stored.data == 0.0) == 2
