"""Tests for Algorithm 2 (the full trace-reduction sparsifier)."""

import numpy as np
import pytest

from repro.core import (
    SparsifierConfig,
    evaluate_sparsifier,
    trace_reduction_sparsify,
)
from repro.exceptions import GraphError
from repro.graph import connected_components, grid2d, triangular_mesh


@pytest.fixture(scope="module")
def grid():
    return grid2d(15, 15, seed=51)


@pytest.fixture(scope="module")
def result(grid):
    return trace_reduction_sparsify(grid, edge_fraction=0.10, rounds=3, seed=0)


def test_budget_respected(grid, result):
    budget = int(round(0.10 * grid.n))
    assert len(result.recovered_edge_ids) <= budget + 3  # per-round ceil slack
    assert result.edge_count == len(result.tree_edge_ids) + len(
        result.recovered_edge_ids
    )


def test_sparsifier_is_spanning_connected(grid, result):
    sparsifier = result.sparsifier
    count, _ = connected_components(sparsifier)
    assert count == 1
    assert sparsifier.n == grid.n


def test_contains_tree(result):
    assert result.edge_mask[result.tree_edge_ids].all()


def test_recovered_edges_disjoint_from_tree(result):
    assert not set(result.recovered_edge_ids) & set(result.tree_edge_ids)


def test_rounds_logged(result):
    assert len(result.rounds_log) == 3
    assert result.rounds_log[0]["phase"] == "tree"
    assert all(entry["phase"] == "general" for entry in result.rounds_log[1:])
    assert result.setup_seconds > 0


def test_rounds_log_trace_accounting(result):
    """Each round reports the (approximate) trace it removed."""
    for entry in result.rounds_log:
        assert entry["trace_reduction"] > 0
        assert np.isfinite(entry["trace_reduction"])


def test_single_round_is_tree_phase_only(grid):
    result = trace_reduction_sparsify(grid, edge_fraction=0.05, rounds=1)
    assert len(result.rounds_log) == 1
    assert result.rounds_log[0]["phase"] == "tree"


def test_zero_fraction_returns_tree(grid):
    result = trace_reduction_sparsify(grid, edge_fraction=0.0)
    assert result.edge_count == len(result.tree_edge_ids)


def test_full_budget_caps_at_graph(grid):
    """Asking for more edges than exist recovers everything available."""
    result = trace_reduction_sparsify(grid, edge_fraction=10.0, rounds=2)
    assert result.edge_count <= grid.edge_count


def test_more_edges_lower_kappa(grid):
    sparse = trace_reduction_sparsify(grid, edge_fraction=0.02, rounds=2)
    dense = trace_reduction_sparsify(grid, edge_fraction=0.20, rounds=2)
    q_sparse = evaluate_sparsifier(grid, sparse.sparsifier)
    q_dense = evaluate_sparsifier(grid, dense.sparsifier)
    assert q_dense.kappa < q_sparse.kappa


def test_beats_tree_alone(grid):
    from repro.graph import regularization_shift, regularized_laplacian
    from repro.linalg import cholesky, relative_condition_number

    result = trace_reduction_sparsify(grid, edge_fraction=0.10, rounds=3)
    shift = regularization_shift(grid)
    L_G = regularized_laplacian(grid, shift)
    tree = grid.subgraph(result.tree_edge_ids)
    L_T = regularized_laplacian(tree, shift)
    kappa_tree = relative_condition_number(L_G, cholesky(L_T), L_T)
    q = evaluate_sparsifier(grid, result.sparsifier)
    assert q.kappa < kappa_tree


def test_works_on_mesh():
    mesh = triangular_mesh(150, seed=5)
    result = trace_reduction_sparsify(mesh, edge_fraction=0.10, rounds=2)
    count, _ = connected_components(result.sparsifier)
    assert count == 1


def test_works_on_disconnected(forest_graph):
    result = trace_reduction_sparsify(forest_graph, edge_fraction=0.2, rounds=2)
    count, _ = connected_components(result.sparsifier)
    assert count == 2


def test_tree_method_options(grid):
    for method in ("mewst", "max_weight", "bfs"):
        result = trace_reduction_sparsify(
            grid, edge_fraction=0.02, rounds=1, tree_method=method
        )
        assert result.edge_count > 0


def test_config_validation():
    with pytest.raises(GraphError):
        SparsifierConfig(rounds=0).validate()
    with pytest.raises(GraphError):
        SparsifierConfig(beta=0).validate()
    with pytest.raises(GraphError):
        SparsifierConfig(tree_method="magic").validate()
    with pytest.raises(GraphError):
        SparsifierConfig(edge_fraction=-1.0).validate()


@pytest.mark.parametrize("method,knob", [
    ("proposed", {"delta": 1.5}),
    ("proposed", {"delta": 1.0}),
    ("proposed", {"delta": -0.1}),
    ("proposed", {"delta": float("nan")}),
    ("proposed", {"gamma": -1}),
    ("grass", {"gamma": -1}),
    ("fegrass", {"gamma": -1}),
])
def test_spai_and_similarity_knobs_rejected_before_running(grid, method,
                                                          knob):
    """Bad delta/gamma are GraphErrors from validate(), not late crashes."""
    import repro

    name = next(iter(knob))
    with pytest.raises(GraphError, match=name):
        repro.sparsify(grid, method, **knob)


def test_config_and_overrides_conflict(grid):
    with pytest.raises(GraphError):
        trace_reduction_sparsify(grid, SparsifierConfig(), edge_fraction=0.1)


def test_deterministic(grid):
    a = trace_reduction_sparsify(grid, edge_fraction=0.05, rounds=2, seed=3)
    b = trace_reduction_sparsify(grid, edge_fraction=0.05, rounds=2, seed=3)
    np.testing.assert_array_equal(a.edge_mask, b.edge_mask)


def test_similarity_off_recovers_same_count(grid):
    result = trace_reduction_sparsify(
        grid, edge_fraction=0.05, rounds=2, use_similarity=False
    )
    budget = int(round(0.05 * grid.n))
    assert len(result.recovered_edge_ids) >= budget - 1
