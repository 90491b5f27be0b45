"""Tests for the batched edge-ranking engine (repro.core.ranking)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from repro.core import (
    ApproxRanker,
    BallCache,
    ExactRanker,
    TreePhaseRanker,
    exact_trace_reduction_batch,
)
from repro.graph import (
    grid2d,
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
    def test_matches_reference(self, small_mesh):
        forest, *_ = _setting(small_mesh)
        off = np.flatnonzero(~forest.tree_edge_mask())
        ranker = TreePhaseRanker(small_mesh, forest, beta=4)
        expected = oracles.tree_truncated_trace_reduction(
            small_mesh, forest, off, beta=4
        )
        np.testing.assert_allclose(ranker.score_batch(off), expected,
                                   rtol=1e-10)

    def test_chunk_stable(self, small_grid):
        forest, *_ = _setting(small_grid)
        off = np.flatnonzero(~forest.tree_edge_mask())
        ranker = TreePhaseRanker(small_grid, forest, beta=3)
        whole = ranker.score_batch(off)
        pieces = np.concatenate(
            [ranker.score_batch(off[k : k + 5]) for k in range(0, len(off), 5)]
        )
        assert np.array_equal(whole, pieces)


class TestExactRanker:
    def test_matches_reference(self, small_grid):
        forest, subgraph, factor, Z, off, shift = _setting(small_grid)
        ranker = ExactRanker(small_grid, factor.solve)
        expected = exact_trace_reduction_batch(
            small_grid, factor.solve, off
        )
        assert np.array_equal(ranker.score_batch(off), expected)

    def test_from_subgraph(self, small_grid):
        forest, subgraph, factor, Z, off, shift = _setting(small_grid)
        ranker = ExactRanker.from_subgraph(small_grid, subgraph, shift)
        expected = exact_trace_reduction_batch(
            small_grid, factor.solve, off[:10]
        )
        np.testing.assert_allclose(
            ranker.score_batch(off[:10]), expected, rtol=1e-9
        )


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


class TestBallCache:
    def test_requires_attachment(self):
        cache = BallCache(2)
        with pytest.raises(RuntimeError):
            cache.ball(0)

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            BallCache(0)

    def test_balls_match_finder(self, small_grid):
        from repro.graph.bfs import BallFinder

        indptr, nbr, _ = small_grid.adjacency()
        cache = BallCache(2)
        cache.attach_subgraph(indptr, nbr)
        finder = BallFinder(indptr, nbr)
        for node in (0, 17, 63):
            expected = np.sort(finder.ball(node, 2)[0])
            assert np.array_equal(cache.ball(node), expected)

    def test_invalidation_matches_fresh_cache(self, small_mesh):
        """Balls after attach(invalidate=touched) == a fresh cache's.

        This is the caching/invalidation contract: recovering edges and
        invalidating only the touched neighborhoods must reproduce
        exactly what a cold cache computes against the new subgraph, and
        the ranker on the new subgraph must agree with the oracle loop.
        """
        graph = small_mesh
        shift = regularization_shift(graph)
        forest = RootedForest(graph, mewst(graph))
        mask = forest.tree_edge_mask().copy()
        off = np.flatnonzero(~mask)
        beta = 4

        cache = BallCache(beta)
        indptr1, nbr1, _ = graph.subgraph(mask).adjacency()
        cache.attach_subgraph(indptr1, nbr1)
        for node in range(graph.n):
            cache.ball(node)
        warm_entries = len(cache)

        # "Recover" a handful of edges, as a densification round would.
        recovered = off[:: max(1, len(off) // 6)][:6]
        mask[recovered] = True
        touched = np.unique(
            np.concatenate([graph.u[recovered], graph.v[recovered]])
        )
        remaining = np.flatnonzero(~mask)

        sub2 = graph.subgraph(mask)
        indptr2, nbr2, _ = sub2.adjacency()
        cache.attach_subgraph(indptr2, nbr2, invalidate=touched)
        assert len(cache) < warm_entries  # something was dropped
        fresh = BallCache(beta)
        fresh.attach_subgraph(indptr2, nbr2)
        for node in range(graph.n):
            assert np.array_equal(cache.ball(node), fresh.ball(node))

        f2 = cholesky(regularized_laplacian(sub2, shift))
        Z2 = sparse_approximate_inverse(f2.L, delta=0.1)
        got = ApproxRanker(graph, sub2, f2, Z2, beta=beta).score_batch(
            remaining)
        expected = oracles.approximate_trace_reduction(
            graph, sub2, f2, Z2, remaining, beta=beta)
        np.testing.assert_allclose(got, expected, rtol=1e-10)


class TestBallCacheMutation:
    """The evolving-graph contract: stale entries must never survive."""

    def _tree_cache(self, graph, beta=3):
        forest = RootedForest(graph, mewst(graph))
        mask = forest.tree_edge_mask().copy()
        sub = graph.subgraph(mask)
        cache = BallCache(beta)
        indptr, nbr, _ = sub.adjacency()
        cache.attach_subgraph(indptr, nbr)
        return cache, mask

    def test_changed_adjacency_without_invalidate_raises(self, small_grid):
        """Regression for the documented silent-staleness hazard:

        re-attaching a *changed* adjacency while entries are cached
        must raise instead of silently serving stale balls."""
        graph = small_grid
        cache, mask = self._tree_cache(graph)
        for node in range(graph.n):
            cache.ball(node)
        assert len(cache) == graph.n
        off = np.flatnonzero(~mask)
        mask[off[0]] = True
        indptr2, nbr2, _ = graph.subgraph(mask).adjacency()
        with pytest.raises(ValueError, match="invalidate"):
            cache.attach_subgraph(indptr2, nbr2)
        # The touched set makes the same attach legal...
        touched = [int(graph.u[off[0]]), int(graph.v[off[0]])]
        cache.attach_subgraph(indptr2, nbr2, invalidate=touched)
        # ... and re-attaching an UNCHANGED adjacency never needs one.
        cache.attach_subgraph(indptr2, nbr2)

    def test_changed_adjacency_with_empty_cache_is_fine(self, small_grid):
        graph = small_grid
        cache, mask = self._tree_cache(graph)
        off = np.flatnonzero(~mask)
        mask[off[0]] = True
        indptr2, nbr2, _ = graph.subgraph(mask).adjacency()
        cache.attach_subgraph(indptr2, nbr2)  # nothing cached yet

    def test_deletion_invalidation_matches_fresh_cache(self, small_mesh):
        """Warm balls after edge *deletions* == cold-cache balls.

        Deletions grow distances, so only the OLD adjacency's balls
        reach every entry whose routes ran through the removed edges —
        the direction the insert-shaped test above cannot catch.  The
        ranker on the shrunk subgraph must agree with the oracle loop."""
        graph = small_mesh
        shift = regularization_shift(graph)
        forest = RootedForest(graph, mewst(graph))
        mask = forest.tree_edge_mask().copy()
        off = np.flatnonzero(~mask)
        extra = off[:8]          # densify, then delete a few of these
        mask[extra] = True
        beta = 4

        cache = BallCache(beta)
        indptr1, nbr1, _ = graph.subgraph(mask).adjacency()
        cache.attach_subgraph(indptr1, nbr1)
        for node in range(graph.n):
            cache.ball(node)

        deleted = extra[:4]
        mask[deleted] = False
        touched = np.unique(
            np.concatenate([graph.u[deleted], graph.v[deleted]])
        )
        remaining = np.flatnonzero(~mask)

        sub2 = graph.subgraph(mask)
        indptr2, nbr2, _ = sub2.adjacency()
        cache.attach_subgraph(indptr2, nbr2, invalidate=touched)
        fresh = BallCache(beta)
        fresh.attach_subgraph(indptr2, nbr2)
        for node in range(graph.n):
            assert np.array_equal(cache.ball(node), fresh.ball(node))

        f2 = cholesky(regularized_laplacian(sub2, shift))
        Z2 = sparse_approximate_inverse(f2.L, delta=0.1)
        got = ApproxRanker(graph, sub2, f2, Z2, beta=beta).score_batch(
            remaining)
        expected = oracles.approximate_trace_reduction(
            graph, sub2, f2, Z2, remaining, beta=beta)
        np.testing.assert_allclose(got, expected, rtol=1e-10)

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 2**16), beta=st.integers(1, 3),
           n_delete=st.integers(1, 6))
    def test_property_delta_balls_match_cold_rebuild(self, seed, beta,
                                                     n_delete):
        """Every ball served after invalidate= equals a cold cache's.

        Random mixed batches (deletions of kept off-tree edges plus
        wedge re-insertions) against a grid: the delta-path cache must
        be indistinguishable from one built fresh on the new adjacency.
        """
        graph = grid2d(7, 7, weights="uniform", seed=seed % 1000)
        rng = np.random.default_rng(seed)
        forest = RootedForest(graph, mewst(graph))
        mask = forest.tree_edge_mask().copy()
        off = np.flatnonzero(~mask)
        keep = rng.choice(off, size=min(10, len(off)), replace=False)
        mask[keep] = True

        cache = BallCache(beta)
        indptr, nbr, _ = graph.subgraph(mask).adjacency()
        cache.attach_subgraph(indptr, nbr)
        for node in range(graph.n):
            cache.ball(node)

        mutated = rng.choice(keep, size=min(n_delete, len(keep)),
                             replace=False)
        mask[mutated] = False
        readd = mutated[: len(mutated) // 2]
        mask[readd] = True       # delete + re-insert in one batch
        touched = np.unique(np.concatenate(
            [graph.u[mutated], graph.v[mutated]]
        ))
        indptr2, nbr2, _ = graph.subgraph(mask).adjacency()
        cache.attach_subgraph(indptr2, nbr2, invalidate=touched)

        fresh = BallCache(beta)
        fresh.attach_subgraph(indptr2, nbr2)
        for node in range(graph.n):
            assert np.array_equal(cache.ball(node), fresh.ball(node)), (
                f"stale ball at node {node}"
            )
