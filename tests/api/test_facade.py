"""repro.sparsify must be bit-identical to the per-method entry points."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.api import get_method, list_methods, sparsify
from repro.core import (
    ErSamplingConfig,
    SparsifierConfig,
    er_sample_sparsify,
    fegrass_sparsify,
    grass_sparsify,
    trace_reduction_sparsify,
)
from repro.exceptions import GraphError, UnknownMethodError, UnknownOptionError
from repro.graph import grid2d

LEGACY = {
    "proposed": trace_reduction_sparsify,
    "grass": grass_sparsify,
    "fegrass": fegrass_sparsify,
    "er_sampling": er_sample_sparsify,
}


@pytest.fixture(scope="module")
def grid():
    return grid2d(13, 13, weights="uniform", seed=33)


@pytest.mark.parametrize("method", sorted(LEGACY))
@pytest.mark.parametrize("fraction", [0.0, 0.05, 0.15])
def test_facade_matches_legacy_entry_points(grid, method, fraction):
    new = sparsify(grid, method=method, edge_fraction=fraction, seed=2)
    old = LEGACY[method](grid, edge_fraction=fraction, seed=2)
    np.testing.assert_array_equal(new.edge_mask, old.edge_mask)
    np.testing.assert_array_equal(new.tree_edge_ids, old.tree_edge_ids)
    np.testing.assert_array_equal(
        new.recovered_edge_ids, old.recovered_edge_ids
    )


@settings(max_examples=15, deadline=None)
@given(
    method=st.sampled_from(sorted(LEGACY)),
    fraction=st.floats(min_value=0.0, max_value=0.3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_facade_bit_identity_property(method, fraction, seed):
    """Acceptance property: for every registered method and any
    (fraction, seed), the unified entry point reproduces the
    pre-refactor per-method function bit for bit."""
    graph = grid2d(9, 9, weights="uniform", seed=17)
    new = sparsify(graph, method=method, edge_fraction=fraction, seed=seed)
    old = LEGACY[method](graph, edge_fraction=fraction, seed=seed)
    np.testing.assert_array_equal(new.edge_mask, old.edge_mask)


def test_facade_accepts_config_instance(grid):
    config = SparsifierConfig(edge_fraction=0.08, rounds=2)
    via_config = sparsify(grid, method="proposed", config=config)
    via_options = sparsify(grid, method="proposed", edge_fraction=0.08,
                           rounds=2)
    np.testing.assert_array_equal(
        via_config.edge_mask, via_options.edge_mask
    )
    assert via_config.config is config


def test_facade_is_exported_at_top_level(grid):
    assert repro.sparsify is sparsify
    result = repro.sparsify(grid, method="er_sampling",
                            config=ErSamplingConfig(edge_fraction=0.05))
    assert result.edge_count > 0


def test_unknown_method_raises(grid):
    with pytest.raises(UnknownMethodError):
        sparsify(grid, method="nope")


def test_unknown_option_raises(grid):
    with pytest.raises(UnknownOptionError):
        sparsify(grid, method="er_sampling", rounds=3)
    with pytest.raises(UnknownOptionError):
        sparsify(grid, method="proposed", bogus_option=1)


@pytest.mark.parametrize("removed", ["kernels", "cholesky_backend", "ranking",
                                     "backend"])
def test_removed_options_raise(grid, removed):
    """Options that were removed are rejected, not silently ignored."""
    with pytest.raises(UnknownOptionError, match=removed):
        sparsify(grid, method="proposed", **{removed: "auto"})


@pytest.mark.parametrize("method", ["proposed", "grass", "fegrass",
                                    "er_sampling"])
def test_non_finite_options_raise_graph_error(grid, method):
    """inf/NaN budgets and shifts are typed errors, not a traceback or
    a sparsifier ranked on NaN."""
    bad = [("edge_fraction", np.inf), ("edge_fraction", np.nan)]
    if "reg_rel" in get_method(method).option_names():
        bad += [("reg_rel", np.inf), ("reg_rel", np.nan)]
    for option, value in bad:
        with pytest.raises(GraphError, match="finite"):
            sparsify(grid, method=method, **{option: value})


def test_all_methods_share_budget_convention(grid):
    """Equal edge budget is what makes the paper's comparison fair."""
    counts = {
        method: sparsify(grid, method=method, edge_fraction=0.1).edge_count
        for method in list_methods()
    }
    assert len(set(counts.values())) == 1, counts
