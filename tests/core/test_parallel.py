"""Tests for the chunked worker-pool executor (repro.core.parallel)."""

import sys
import warnings

import numpy as np
import pytest

from oracles import approximate_trace_reduction
from repro.core import (
    ApproxRanker,
    DEFAULT_CHUNK_SIZE,
    TreePhaseRanker,
    chunk_spans,
    resolve_workers,
    score_edges,
    trace_reduction_sparsify,
)
from repro.graph import regularization_shift, regularized_laplacian
from repro.linalg import cholesky, sparse_approximate_inverse
from repro.tree import RootedForest, mewst


class TestChunkSpans:
    def test_exact_cover(self):
        spans = chunk_spans(10, 3)
        assert spans == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_single_span(self):
        assert chunk_spans(5, 100) == [(0, 5)]

    def test_empty(self):
        assert chunk_spans(0, 4) == []

    def test_auto_uses_default(self):
        spans = chunk_spans(DEFAULT_CHUNK_SIZE + 1, 0)
        assert spans == [
            (0, DEFAULT_CHUNK_SIZE),
            (DEFAULT_CHUNK_SIZE, DEFAULT_CHUNK_SIZE + 1),
        ]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            chunk_spans(10, -1)


class TestResolveWorkers:
    def test_passthrough(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(7) == 7

    def test_zero_means_cpu_count(self):
        assert resolve_workers(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)


needs_fork_pool = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="fork-based worker pool only runs on Linux",
)


def _score_pool_strict(ranker, edge_ids, **kwargs):
    """score_edges that FAILS (instead of passing vacuously) if the
    pool silently degrades to the serial path — the RuntimeWarning the
    fallback emits is escalated to an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return score_edges(ranker, edge_ids, **kwargs)


@pytest.fixture(scope="module")
def approx_setting(request):
    graph = request.getfixturevalue("small_mesh")
    shift = regularization_shift(graph)
    forest = RootedForest(graph, mewst(graph))
    subgraph = graph.subgraph(forest.tree_edge_mask())
    factor = cholesky(regularized_laplacian(subgraph, shift))
    Z = sparse_approximate_inverse(factor.L, delta=0.1)
    off = np.flatnonzero(~forest.tree_edge_mask())
    return graph, forest, subgraph, factor, Z, off


class TestScoreEdges:
    def test_empty_candidates(self, approx_setting):
        graph, _, subgraph, factor, Z, _ = approx_setting
        ranker = ApproxRanker(graph, subgraph, factor, Z)
        assert len(score_edges(ranker, np.empty(0, dtype=np.int64))) == 0

    def test_serial_matches_reference(self, approx_setting):
        graph, _, subgraph, factor, Z, off = approx_setting
        expected = approximate_trace_reduction(
            graph, subgraph, factor, Z, off, beta=5
        )
        ranker = ApproxRanker(graph, subgraph, factor, Z, beta=5)
        got = score_edges(ranker, off, workers=1, chunk_size=13)
        np.testing.assert_allclose(got, expected, rtol=1e-10)

    @needs_fork_pool
    def test_workers_bit_identical_to_serial(self, approx_setting):
        """The headline determinism guarantee: workers > 1 changes nothing."""
        graph, _, subgraph, factor, Z, off = approx_setting
        serial = score_edges(
            ApproxRanker(graph, subgraph, factor, Z, beta=5),
            off, workers=1, chunk_size=11,
        )
        parallel = _score_pool_strict(
            ApproxRanker(graph, subgraph, factor, Z, beta=5),
            off, workers=3, chunk_size=11,
        )
        assert np.array_equal(serial, parallel)

    def test_chunk_size_does_not_change_scores(self, approx_setting):
        graph, _, subgraph, factor, Z, off = approx_setting
        baseline = score_edges(
            ApproxRanker(graph, subgraph, factor, Z, beta=5), off
        )
        for chunk_size in (1, 7, 64, len(off) + 5):
            got = score_edges(
                ApproxRanker(graph, subgraph, factor, Z, beta=5),
                off, chunk_size=chunk_size,
            )
            assert np.array_equal(got, baseline), chunk_size

    @needs_fork_pool
    def test_tree_ranker_parallel(self, approx_setting):
        graph, forest, *_ , off = approx_setting
        ranker = TreePhaseRanker(graph, forest, beta=4)
        serial = score_edges(ranker, off, workers=1, chunk_size=9)
        parallel = _score_pool_strict(ranker, off, workers=2, chunk_size=9)
        assert np.array_equal(serial, parallel)


class TestSparsifierParallel:
    @needs_fork_pool
    def test_workers_reproduce_serial_result(self, medium_grid):
        serial = trace_reduction_sparsify(
            medium_grid, edge_fraction=0.1, rounds=3
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            parallel = trace_reduction_sparsify(
                medium_grid, edge_fraction=0.1, rounds=3,
                workers=2, chunk_size=17,
            )
        assert np.array_equal(serial.edge_mask, parallel.edge_mask)
        assert np.array_equal(
            serial.recovered_edge_ids, parallel.recovered_edge_ids
        )

    def test_bad_knobs_rejected(self, small_grid):
        from repro.exceptions import GraphError

        with pytest.raises(GraphError):
            trace_reduction_sparsify(small_grid, workers=-1)
        with pytest.raises(GraphError):
            trace_reduction_sparsify(small_grid, chunk_size=-2)
        with pytest.raises(GraphError):
            trace_reduction_sparsify(small_grid, ranking="nope")
