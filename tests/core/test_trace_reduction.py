"""Tests for the trace-reduction criticality metrics (Eqs. 6-12, 20)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ApproxRanker,
    exact_trace_reduction,
    exact_trace_reduction_batch,
    truncated_trace_reduction_reference,
)
from repro.core.trace import trace_ratio_exact
from repro.graph import grid2d, regularization_shift, regularized_laplacian
from repro.linalg import cholesky, sparse_approximate_inverse
from repro.tree import mewst


def _approx(graph, subgraph, factor, Z, edge_ids, beta):
    """Eq. (20) through the production ranker."""
    return ApproxRanker(graph, subgraph, factor, Z, beta=beta).score_batch(
        edge_ids)


@pytest.fixture(scope="module")
def setting():
    g = grid2d(7, 7, seed=31)
    shift = regularization_shift(g, 1e-6)
    L_G = regularized_laplacian(g, shift)
    tree_ids = mewst(g)
    tree = g.subgraph(tree_ids)
    L_T = regularized_laplacian(tree, shift)
    factor = cholesky(L_T)
    off = np.setdiff1d(np.arange(g.edge_count), tree_ids)
    return g, shift, L_G, tree_ids, tree, L_T, factor, off


def test_sherman_morrison_identity(setting):
    """Eq. (10): adding edge e reduces the trace by exactly TrRed(e)."""
    g, shift, L_G, tree_ids, tree, L_T, factor, off = setting
    base = trace_ratio_exact(L_G, L_T)
    for edge in off[:6]:
        trred = exact_trace_reduction(
            g, factor.solve, int(g.u[edge]), int(g.v[edge]), float(g.w[edge])
        )
        grown = np.sort(np.concatenate([tree_ids, [edge]]))
        L_grown = regularized_laplacian(g.subgraph(grown), shift)
        after = trace_ratio_exact(L_G, L_grown)
        assert base - trred == pytest.approx(after, rel=1e-5)


def test_trace_reduction_positive(setting):
    g, _, _, _, _, _, factor, off = setting
    values = exact_trace_reduction_batch(g, factor.solve, off)
    assert (values > 0).all()


def test_batch_matches_single(setting):
    g, _, _, _, _, _, factor, off = setting
    batch = exact_trace_reduction_batch(g, factor.solve, off[:5])
    for k, edge in enumerate(off[:5]):
        single = exact_trace_reduction(
            g, factor.solve, int(g.u[edge]), int(g.v[edge]), float(g.w[edge])
        )
        assert batch[k] == pytest.approx(single)


def test_truncated_below_exact(setting):
    """Truncation drops nonnegative terms, so truncated <= exact."""
    g, _, _, _, tree, _, factor, off = setting
    exact = exact_trace_reduction_batch(g, factor.solve, off)
    for beta in (1, 2, 4):
        truncated = truncated_trace_reduction_reference(
            g, tree, factor.solve, off, beta=beta
        )
        assert (truncated <= exact * (1 + 1e-9)).all()


def test_truncated_monotone_in_beta(setting):
    """Larger balls can only add terms."""
    g, _, _, _, tree, _, factor, off = setting
    previous = None
    for beta in (1, 2, 3, 5):
        current = truncated_trace_reduction_reference(
            g, tree, factor.solve, off, beta=beta
        )
        if previous is not None:
            assert (current >= previous - 1e-12).all()
        previous = current


def test_truncated_converges_to_exact(setting):
    """With beta >= diameter the truncation vanishes."""
    g, _, _, _, tree, _, factor, off = setting
    exact = exact_trace_reduction_batch(g, factor.solve, off)
    truncated = truncated_trace_reduction_reference(
        g, tree, factor.solve, off, beta=100
    )
    np.testing.assert_allclose(truncated, exact, rtol=1e-9)


def test_approximate_equals_reference_when_unpruned(setting):
    """Eq. (20) with the exact inverse reproduces Eq. (12) exactly."""
    g, shift, _, tree_ids, _, _, _, off = setting
    ids = np.sort(np.concatenate([tree_ids, off[:10]]))
    subgraph = g.subgraph(ids)
    L_S = regularized_laplacian(subgraph, shift)
    factor = cholesky(L_S)
    Z = sparse_approximate_inverse(factor.L, delta=0.0, keep_threshold=10**9)
    candidates = np.setdiff1d(off, off[:10])
    approx = _approx(g, subgraph, factor, Z, candidates, beta=3)
    reference = truncated_trace_reduction_reference(
        g, subgraph, factor.solve, candidates, beta=3
    )
    np.testing.assert_allclose(approx, reference, rtol=1e-8)


def test_approximate_with_pruning_preserves_top_edges(setting):
    """delta=0.1 pruning must keep the top-ranked candidates stable."""
    g, shift, _, tree_ids, _, _, _, off = setting
    ids = np.sort(np.concatenate([tree_ids, off[:8]]))
    subgraph = g.subgraph(ids)
    L_S = regularized_laplacian(subgraph, shift)
    factor = cholesky(L_S)
    Z = sparse_approximate_inverse(factor.L, delta=0.1)
    candidates = np.setdiff1d(off, off[:8])
    approx = _approx(g, subgraph, factor, Z, candidates, beta=3)
    reference = truncated_trace_reduction_reference(
        g, subgraph, factor.solve, candidates, beta=3
    )
    k = max(3, len(candidates) // 4)
    top_approx = set(np.argsort(-approx)[:k].tolist())
    top_ref = set(np.argsort(-reference)[:k].tolist())
    overlap = len(top_approx & top_ref) / k
    assert overlap >= 0.5


def test_approximate_nonnegative(setting):
    g, shift, _, tree_ids, _, _, _, off = setting
    subgraph = g.subgraph(tree_ids)
    L_S = regularized_laplacian(subgraph, shift)
    factor = cholesky(L_S)
    Z = sparse_approximate_inverse(factor.L, delta=0.1)
    approx = _approx(g, subgraph, factor, Z, off, beta=5)
    assert (approx >= 0).all()


def test_heavier_parallel_edge_more_critical():
    """On a dumbbell, the heavier of two parallel off-tree edges wins."""
    from repro.graph import Graph

    # Path 0-1-2-3 plus two off-tree shortcuts with different weights.
    edges = [
        (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0),  # tree
        (0, 3, 0.1),                            # light shortcut
        (0, 2, 2.0),                            # heavy shortcut
    ]
    g = Graph.from_edges(4, edges)
    shift = regularization_shift(g, 1e-6)
    L_T = regularized_laplacian(g.subgraph(np.array([0, 1, 2])), shift)
    factor = cholesky(L_T)
    light = exact_trace_reduction(g, factor.solve, 0, 3, 0.1)
    heavy = exact_trace_reduction(g, factor.solve, 0, 2, 2.0)
    assert heavy > light


@given(seed=st.integers(0, 40))
@settings(max_examples=10, deadline=None)
def test_trace_monotone_under_edge_addition(seed):
    """Trace(L_S^-1 L_G) strictly decreases as off-tree edges are added."""
    rng = np.random.default_rng(seed)
    g = grid2d(5, 5, seed=seed)
    shift = regularization_shift(g, 1e-6)
    L_G = regularized_laplacian(g, shift)
    tree_ids = mewst(g)
    off = np.setdiff1d(np.arange(g.edge_count), tree_ids)
    rng.shuffle(off)
    ids = tree_ids
    previous = trace_ratio_exact(L_G, regularized_laplacian(g.subgraph(ids), shift))
    for edge in off[:4]:
        ids = np.sort(np.concatenate([ids, [edge]]))
        current = trace_ratio_exact(
            L_G, regularized_laplacian(g.subgraph(ids), shift)
        )
        assert current < previous + 1e-9
        previous = current
