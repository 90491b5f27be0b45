"""Tests for the Spielman-Srivastava effective-resistance baseline."""

import numpy as np
import pytest

from oracles import effective_resistance
from repro import sparsify
from repro.core import approximate_effective_resistances, evaluate_sparsifier
from repro.exceptions import GraphError, UnknownOptionError
from repro.graph import connected_components, grid2d, regularization_shift
from repro.graph.laplacian import incidence_matrix, regularized_laplacian
from repro.linalg import cholesky


@pytest.fixture(scope="module")
def grid():
    return grid2d(12, 12, seed=101)


def test_jl_resistances_close_to_exact(grid):
    approx = approximate_effective_resistances(grid, sketch_size=400, seed=0)
    shift = regularization_shift(grid, 1e-6)
    factor = cholesky(regularized_laplacian(grid, shift))
    rng = np.random.default_rng(1)
    picks = rng.choice(grid.edge_count, size=20, replace=False)
    for edge in picks:
        exact = effective_resistance(
            factor.solve, int(grid.u[edge]), int(grid.v[edge]), grid.n
        )
        assert approx[edge] == pytest.approx(exact, rel=0.5)


def test_jl_resistances_bounded_by_direct_edge(grid):
    """R_eff(u,v) <= 1/w_uv for an existing edge (parallel paths help)."""
    approx = approximate_effective_resistances(grid, sketch_size=600, seed=2)
    assert (approx <= 1.3 / grid.w).all()


def test_sparsifier_is_connected(grid):
    result = sparsify(grid, "er_sampling", edge_fraction=0.10, seed=0)
    count, _ = connected_components(result.sparsifier)
    assert count == 1


def test_budget_respected(grid):
    result = sparsify(grid, "er_sampling", edge_fraction=0.10, seed=0)
    budget = int(round(0.10 * grid.n))
    assert len(result.recovered_edge_ids) == budget


def test_deterministic(grid):
    a = sparsify(grid, "er_sampling", edge_fraction=0.05, seed=5)
    b = sparsify(grid, "er_sampling", edge_fraction=0.05, seed=5)
    np.testing.assert_array_equal(a.edge_mask, b.edge_mask)


def test_wrong_config_type_is_a_clear_error(grid):
    from repro.core import SparsifierConfig

    with pytest.raises(UnknownOptionError, match="ErSamplingConfig"):
        sparsify(grid, "er_sampling", SparsifierConfig())


def test_quality_beats_tree_alone(grid):
    from repro.linalg import relative_condition_number

    result = sparsify(grid, "er_sampling", edge_fraction=0.15, seed=1)
    quality = evaluate_sparsifier(grid, result.sparsifier)
    shift = regularization_shift(grid)
    L_G = regularized_laplacian(grid, shift)
    tree = grid.subgraph(result.tree_edge_ids)
    L_T = regularized_laplacian(tree, shift)
    kappa_tree = relative_condition_number(L_G, cholesky(L_T), L_T)
    assert quality.kappa < kappa_tree


def test_tree_backbone_is_not_optional(grid):
    """Without its spanning forest the sample is no valid sparsifier, so
    the option that dropped the forest is gone."""
    with pytest.raises(UnknownOptionError, match="include_tree"):
        sparsify(grid, "er_sampling", edge_fraction=0.3,
                 include_tree=False)


def test_er_sketch_bits_match_explicit_loop(grid):
    """The sketch replays the explicit draw-then-solve loop bit for bit
    and leaves the generator in the same state, which the sampler
    records so that warm runs draw the same sample as cold ones."""
    sketch_size = 32
    rng = np.random.default_rng(7)
    resistances = approximate_effective_resistances(
        grid, sketch_size=sketch_size, seed=rng,
    )
    loop_rng = np.random.default_rng(7)
    factor = cholesky(regularized_laplacian(grid, regularization_shift(grid)))
    incidence = incidence_matrix(grid, weighted=True)
    sketch = np.empty((sketch_size, grid.n))
    scale = 1.0 / np.sqrt(sketch_size)
    for i in range(sketch_size):
        q = loop_rng.choice((-scale, scale), size=grid.edge_count)
        sketch[i] = factor.solve(incidence.T @ q)
    diffs = sketch[:, grid.u] - sketch[:, grid.v]
    np.testing.assert_array_equal(resistances, np.sum(diffs * diffs, axis=0))
    assert rng.bit_generator.state == loop_rng.bit_generator.state


@pytest.mark.parametrize("sketch_size", [0, -1])
def test_sketch_size_below_one_is_a_graph_error(grid, sketch_size):
    with pytest.raises(GraphError, match="sketch_size"):
        approximate_effective_resistances(grid, sketch_size=sketch_size)
