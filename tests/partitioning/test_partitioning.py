"""Tests for Fiedler vectors and spectral bipartitioning."""

import numpy as np
import pytest

from repro import sparsify
from repro.graph import (
    Graph,
    grid2d,
    regularization_shift,
    regularized_laplacian,
)
from repro.linalg import cholesky
from repro.partitioning import (
    cut_weight,
    fiedler_vector,
    partition_relative_error,
    spectral_bipartition,
)


@pytest.fixture(scope="module")
def barbell():
    """Two 6-cliques joined by one weak edge: the canonical test for
    spectral partitioning — the Fiedler cut must split the cliques."""
    edges = []
    for base in (0, 6):
        for i in range(6):
            for j in range(i + 1, 6):
                edges.append((base + i, base + j, 1.0))
    edges.append((5, 6, 0.01))
    return Graph.from_edges(12, edges)


def test_fiedler_separates_cliques(barbell):
    result = fiedler_vector(barbell, method="direct", steps=8, seed=0)
    labels = spectral_bipartition(result.vector)
    assert len(set(labels[:6])) == 1
    assert len(set(labels[6:])) == 1
    assert labels[0] != labels[6]


def test_fiedler_eigenvalue_close_to_lambda2(barbell):
    import scipy.linalg as sla

    result = fiedler_vector(barbell, method="direct", steps=30, seed=0)
    shift = regularization_shift(barbell)
    L = regularized_laplacian(barbell, shift).toarray()
    eigenvalues = np.sort(sla.eigvalsh(L))
    assert result.eigenvalue_estimate == pytest.approx(
        eigenvalues[1], rel=1e-2
    )


def test_fiedler_orthogonal_to_ones(barbell):
    result = fiedler_vector(barbell, method="direct", steps=5, seed=1)
    assert abs(result.vector.sum()) < 1e-8
    assert np.linalg.norm(result.vector) == pytest.approx(1.0)


def test_pcg_matches_direct_on_grid():
    grid = grid2d(20, 20, seed=81)
    direct = fiedler_vector(grid, method="direct", steps=5, seed=3)
    sparsifier = sparsify(grid, "proposed", edge_fraction=0.10, rounds=2)
    shift = regularization_shift(grid)
    factor = cholesky(regularized_laplacian(sparsifier.sparsifier, shift))
    iterative = fiedler_vector(
        grid, method="pcg", preconditioner=factor, steps=5, rtol=1e-8, seed=3
    )
    labels_d = spectral_bipartition(direct.vector)
    labels_i = spectral_bipartition(iterative.vector)
    assert partition_relative_error(labels_d, labels_i) < 0.02
    assert iterative.avg_iterations > 0


def test_pcg_requires_preconditioner(barbell):
    with pytest.raises(ValueError):
        fiedler_vector(barbell, method="pcg")


def test_unknown_method(barbell):
    with pytest.raises(ValueError):
        fiedler_vector(barbell, method="qr")


class TestBipartition:
    def test_balanced_split(self):
        v = np.array([-3.0, -1.0, -0.5, 0.5, 1.0, 3.0])
        labels = spectral_bipartition(v, balanced=True)
        assert labels.sum() == 3

    def test_sign_split(self):
        v = np.array([-1.0, -0.2, 0.3, 0.4, 0.5])
        labels = spectral_bipartition(v, balanced=False)
        assert labels.tolist() == [0, 0, 1, 1, 1]


class TestRelErr:
    def test_identical(self):
        labels = np.array([0, 1, 0, 1])
        assert partition_relative_error(labels, labels) == 0.0

    def test_swap_invariant(self):
        labels = np.array([0, 1, 0, 1])
        assert partition_relative_error(labels, 1 - labels) == 0.0

    def test_single_difference(self):
        a = np.array([0, 0, 1, 1])
        b = np.array([0, 1, 1, 1])
        assert partition_relative_error(a, b) == pytest.approx(0.25)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            partition_relative_error(np.zeros(3), np.zeros(4))


def test_cut_weight(barbell):
    labels = np.array([0] * 6 + [1] * 6, dtype=np.int8)
    assert cut_weight(barbell, labels) == pytest.approx(0.01)
    # Fiedler cut should find this minimum-ish cut.
    result = fiedler_vector(barbell, method="direct", steps=8, seed=0)
    fiedler_cut = cut_weight(barbell, spectral_bipartition(result.vector))
    assert fiedler_cut == pytest.approx(0.01)
