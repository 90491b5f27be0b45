"""The worker pool (repro.core.parallel) and candidate scoring outside it.

The pool runs shards only; a round scores its candidates in batches of
direct ``score_batch`` calls, so scores must not depend on the batches.
"""

import numpy as np
import pytest

import repro
from oracles import approximate_trace_reduction
from repro.core import ApproxRanker, parallel, tree_truncated_trace_reduction
from repro.core.ball_join import JoinStore
from repro.core.parallel import resolve_workers
from repro.graph import grid2d, regularization_shift, regularized_laplacian
from repro.linalg import cholesky, sparse_approximate_inverse
from repro.tree import RootedForest, mewst


class TestResolveWorkers:
    def test_passthrough(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(7) == 7

    def test_zero_means_cpu_count(self):
        assert resolve_workers(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)


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


def _pieces(score, edge_ids, size):
    """Scores of *edge_ids* from one ``score`` call per *size* ids."""
    return np.concatenate([score(edge_ids[k:k + size])
                           for k in range(0, len(edge_ids), size)])


def _tree_phase(graph, forest, beta=5):
    """Round 1's scorer as a function of the candidate ids."""
    return lambda edge_ids: tree_truncated_trace_reduction(
        graph, forest, edge_ids, beta=beta)[0]


class TestScoreEdges:
    def test_empty_candidates(self, approx_setting):
        graph, forest, subgraph, factor, Z, _ = approx_setting
        empty = np.empty(0, dtype=np.int64)
        for score in (ApproxRanker(graph, subgraph, factor, Z).score_batch,
                      _tree_phase(graph, forest)):
            assert len(score(empty)) == 0

    def test_serial_matches_reference(self, approx_setting):
        graph, _, subgraph, factor, Z, off = approx_setting
        expected = approximate_trace_reduction(
            graph, subgraph, factor, Z, off, beta=5
        )
        ranker = ApproxRanker(graph, subgraph, factor, Z, beta=5)
        np.testing.assert_allclose(_pieces(ranker.score_batch, off, 13),
                                   expected, rtol=1e-10)

    def test_chunk_size_does_not_change_scores(self, approx_setting):
        graph, forest, subgraph, factor, Z, off = approx_setting
        for make in (
                lambda: ApproxRanker(graph, subgraph, factor, Z).score_batch,
                lambda: _tree_phase(graph, forest, beta=4)):
            baseline = make()(off)
            for size in (1, 7, 64, len(off) + 5):
                assert np.array_equal(_pieces(make(), off, size),
                                      baseline), size


def _round_two_regrown(monkeypatch, graph, **options):
    """Run ``proposed`` with no pool allowed; return it and the share of
    round 2's candidates whose joins were regrown."""
    shares = []
    retain = JoinStore.retain

    def tracked_retain(store, adjacency, edge_ids, beta):
        missing = retain(store, adjacency, edge_ids, beta)
        shares.append(len(missing) / len(edge_ids))
        return missing

    def no_pool(*args, **kwargs):
        raise AssertionError("an unsharded run started a process pool")

    with monkeypatch.context() as patch:
        patch.setattr(JoinStore, "retain", tracked_retain)
        patch.setattr(parallel, "_pool_map", no_pool)
        result = repro.sparsify(graph, "proposed", **options)
    return result, shares[0]


class TestSparsifierParallel:
    def test_workers_reproduce_serial_result(self, medium_grid):
        serial = repro.sparsify(
            medium_grid, "proposed", edge_fraction=0.1, rounds=3
        )
        two_workers = repro.sparsify(
            medium_grid, "proposed", edge_fraction=0.1, rounds=3, workers=2,
        )
        assert np.array_equal(serial.edge_mask, two_workers.edge_mask)
        assert np.array_equal(
            serial.recovered_edge_ids, two_workers.recovered_edge_ids
        )

    def test_workers_score_in_process_from_the_tree_phase_joins(
            self, monkeypatch):
        # 1,521 candidates: a pool splitting them into chunks of 1,024
        # would fork for the tree phase and lose its joins.
        graph = grid2d(40, 40, weights="uniform", seed=5)
        serial, serial_share = _round_two_regrown(monkeypatch, graph)
        two_workers, share = _round_two_regrown(monkeypatch, graph,
                                                workers=2)
        assert share == serial_share < 1.0
        assert np.array_equal(serial.recovered_edge_ids,
                              two_workers.recovered_edge_ids)

    def test_bad_knobs_rejected(self, small_grid):
        from repro.exceptions import GraphError

        with pytest.raises(GraphError):
            repro.sparsify(small_grid, "proposed", workers=-1)
