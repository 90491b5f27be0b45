"""Tests for the tree-phase truncated trace reduction (Eqs. 13-15)."""

import numpy as np
import pytest

from oracles import (
    exact_trace_reduction_batch,
    tree_resistances,
    truncated_trace_reduction_reference,
)
from repro.core import tree_truncated_trace_reduction
from repro.graph import (
    grid2d,
    regularization_shift,
    regularized_laplacian,
    triangular_mesh,
)
from repro.linalg import cholesky
from repro.tree import RootedForest, mewst


@pytest.fixture(scope="module", params=["grid", "mesh"])
def setting(request):
    if request.param == "grid":
        g = grid2d(8, 8, seed=41)
    else:
        g = triangular_mesh(80, seed=41)
    tree_ids = mewst(g)
    forest = RootedForest(g, tree_ids)
    shift = regularization_shift(g, 1e-8)
    L_T = regularized_laplacian(g.subgraph(tree_ids), shift)
    factor = cholesky(L_T)
    return g, forest, factor


def test_matches_solve_based_reference(setting):
    """BFS voltage propagation == solve-based Eq. (12) on the tree."""
    g, forest, factor = setting
    for beta in (1, 3, 6):
        crit, candidates, _ = tree_truncated_trace_reduction(
            g, forest, beta=beta
        )
        reference = truncated_trace_reduction_reference(
            g, forest.tree, factor.solve, candidates, beta=beta
        )
        np.testing.assert_allclose(crit, reference, rtol=5e-4, atol=1e-10)


def test_resistances_returned(setting):
    g, forest, _ = setting
    crit, candidates, resistances = tree_truncated_trace_reduction(g, forest)
    picks = candidates[::7]
    expected, _ = tree_resistances(forest, g.u[picks], g.v[picks])
    np.testing.assert_allclose(resistances[::7], expected, rtol=1e-12)


def test_large_beta_matches_exact(setting):
    g, forest, factor = setting
    crit, candidates, _ = tree_truncated_trace_reduction(g, forest, beta=500)
    exact = exact_trace_reduction_batch(g, factor.solve, candidates)
    np.testing.assert_allclose(crit, exact, rtol=5e-4)


def test_nonnegative_and_finite(setting):
    g, forest, _ = setting
    crit, _, _ = tree_truncated_trace_reduction(g, forest, beta=5)
    assert np.isfinite(crit).all()
    assert (crit >= 0).all()


def test_explicit_candidates_subset(setting):
    g, forest, _ = setting
    mask = forest.tree_edge_mask()
    all_off = np.flatnonzero(~mask)
    subset = all_off[::3]
    crit_sub, returned, _ = tree_truncated_trace_reduction(
        g, forest, edge_ids=subset, beta=4
    )
    crit_all, all_returned, _ = tree_truncated_trace_reduction(
        g, forest, beta=4
    )
    lookup = {int(e): c for e, c in zip(all_returned, crit_all)}
    for e, c in zip(returned, crit_sub):
        assert c == pytest.approx(lookup[int(e)])


def test_empty_candidates(setting):
    g, forest, _ = setting
    crit, ids, res = tree_truncated_trace_reduction(g, forest, edge_ids=[])
    assert len(crit) == len(ids) == len(res) == 0


def test_path_voltage_drop_hand_example():
    """Hand-checkable: path 0-1-2 with shortcut (0,2)."""
    from repro.graph import Graph

    g = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 4.0)])
    tree_ids = np.array([0, 1])  # the path
    forest = RootedForest(g, tree_ids)
    crit, candidates, resistances = tree_truncated_trace_reduction(
        g, forest, beta=5
    )
    # R_T(0,2) = 1 + 1/2 = 1.5
    assert resistances[0] == pytest.approx(1.5)
    # Voltages: v0=1.5, v1=0.5, v2=0. Numerator terms over all edges:
    # (0,1): 1*(1.5-0.5)^2 = 1 ; (1,2): 2*(0.5)^2 = 0.5 ; (0,2): 4*(1.5)^2 = 9
    # TrRed = 4 * (1 + 0.5 + 9) / (1 + 4*1.5) = 4*10.5/7 = 6.0
    assert crit[0] == pytest.approx(6.0)
