"""Tests for the batched scorers: the tree phase and ``ApproxRanker``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from repro.core import ApproxRanker, tree_truncated_trace_reduction
from repro.graph import (
    regularization_shift,
    regularized_laplacian,
    triangular_mesh,
)
from repro.linalg import cholesky, sparse_approximate_inverse
from repro.tree import RootedForest, mewst


def _setting(graph, extra_edges=0, beta=5, delta=0.1):
    """Tree(+extra)-subgraph ranking setting for *graph*."""
    shift = regularization_shift(graph)
    forest = RootedForest(graph, mewst(graph))
    mask = forest.tree_edge_mask()
    off = np.flatnonzero(~mask)
    if extra_edges:
        mask = mask.copy()
        mask[off[:extra_edges]] = True
        off = off[extra_edges:]
    subgraph = graph.subgraph(mask)
    factor = cholesky(regularized_laplacian(subgraph, shift))
    Z = sparse_approximate_inverse(factor.L, delta=delta)
    return forest, subgraph, factor, Z, off, shift


class TestTreePhaseRanker:
    """Round 1's scorer, :func:`tree_truncated_trace_reduction`."""

    def test_matches_reference(self, small_mesh):
        forest, *_ = _setting(small_mesh)
        off = np.flatnonzero(~forest.tree_edge_mask())
        scores, _, _ = tree_truncated_trace_reduction(small_mesh, forest,
                                                      off, beta=4)
        expected = oracles.tree_truncated_trace_reduction(
            small_mesh, forest, off, beta=4
        )
        np.testing.assert_allclose(scores, expected, rtol=1e-10)

    def test_chunk_stable(self, small_grid):
        forest, *_ = _setting(small_grid)
        off = np.flatnonzero(~forest.tree_edge_mask())

        def score(edge_ids):
            return tree_truncated_trace_reduction(small_grid, forest,
                                                  edge_ids, beta=3)[0]

        whole = score(off)
        pieces = np.concatenate(
            [score(off[k : k + 5]) for k in range(0, len(off), 5)]
        )
        assert np.array_equal(whole, pieces)


class TestApproxRanker:
    def test_matches_reference(self, small_mesh):
        forest, subgraph, factor, Z, off, _ = _setting(
            small_mesh, extra_edges=10
        )
        expected = oracles.approximate_trace_reduction(
            small_mesh, subgraph, factor, Z, off, beta=5
        )
        ranker = ApproxRanker(small_mesh, subgraph, factor, Z, beta=5)
        np.testing.assert_allclose(ranker.score_batch(off), expected,
                                   rtol=1e-10)

    def test_chunk_stable(self, small_mesh):
        forest, subgraph, factor, Z, off, _ = _setting(small_mesh)
        ranker = ApproxRanker(small_mesh, subgraph, factor, Z, beta=5)
        whole = ranker.score_batch(off)
        pieces = np.concatenate(
            [ranker.score_batch(off[k : k + 7]) for k in range(0, len(off), 7)]
        )
        assert np.array_equal(whole, pieces)

    def test_empty_batch(self, small_grid):
        forest, subgraph, factor, Z, off, _ = _setting(small_grid)
        ranker = ApproxRanker(small_grid, subgraph, factor, Z)
        assert len(ranker.score_batch(np.empty(0, dtype=np.int64))) == 0

    def test_bad_beta_rejected(self, small_grid):
        forest, subgraph, factor, Z, off, _ = _setting(small_grid)
        with pytest.raises(ValueError, match="radius"):
            ApproxRanker(small_grid, subgraph, factor, Z, beta=0)

    @given(seed=st.integers(0, 2**16), nodes=st.integers(60, 160))
    @settings(max_examples=8, deadline=None)
    def test_property_matches_looped_reference(self, seed, nodes):
        """score_batch == per-edge oracle loop to 1e-12."""
        graph = triangular_mesh(nodes, shape="disk", weights="smooth",
                                seed=seed)
        forest, subgraph, factor, Z, off, _ = _setting(graph, beta=3)
        ranker = ApproxRanker(graph, subgraph, factor, Z, beta=3)
        got = ranker.score_batch(off)
        looped = np.array([
            float(
                oracles.approximate_trace_reduction(
                    graph, subgraph, factor, Z, [edge], beta=3
                )[0]
            )
            for edge in off
        ])
        np.testing.assert_allclose(got, looped, rtol=1e-12, atol=1e-14)
