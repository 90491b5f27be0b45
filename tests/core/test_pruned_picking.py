"""Exact pruning of the general rounds (repro.core.sparsifier).

Rounds 2+ score only the candidates whose Cauchy-Schwarz bound
(``ApproxRanker.score_bounds``) can still reach the picking walk's
frontier.  Every bound must hold as a float64 comparison, and the walk
must pick the same edges, in the same order, as a walk over every score.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.core.sparsifier as sparsifier
from repro.api import SparsifierSession
from repro.api.records import RunRecord
from repro.core import ApproxRanker, TreePhaseRanker
from repro.core.ball_join import JoinStore
from repro.core.similarity import SimilarityMarker
from repro.graph import Graph, grid2d, regularization_shift
from repro.graph import regularized_laplacian
from repro.linalg import cholesky, sparse_approximate_inverse
from repro.tree import RootedForest, mewst


@st.composite
def _graphs(draw):
    """Graphs on up to 40 nodes with weights from 1e-6 to 1e6.

    Edge densities up to 0.3 give anything from isolated nodes and
    several small components to one component with many cycles.
    """
    n = draw(st.integers(1, 40))
    density = draw(st.floats(0.0, 0.3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    u, v = np.nonzero(np.triu(rng.random((n, n)) < density, k=1))
    return Graph(n, u, v, 10.0 ** rng.uniform(-6.0, 6.0, len(u)))


class TestBound:
    @settings(max_examples=100, deadline=None)
    @given(graph=_graphs(), beta=st.integers(1, 5), seed=st.integers(0, 999))
    def test_no_score_exceeds_its_bound(self, graph, beta, seed):
        rng = np.random.default_rng(seed)
        shift = regularization_shift(graph)
        forest = RootedForest(graph, mewst(graph))
        mask = forest.tree_edge_mask()
        candidates = np.flatnonzero(~mask)
        store = JoinStore(graph)
        # Round 1 seeds the store, as in the sparsifier.
        TreePhaseRanker(graph, forest, beta=beta,
                        joins=store).score_batch(candidates)
        for _ in range(4):
            inserted = rng.permutation(candidates)[:rng.integers(1, 4)]
            mask = mask.copy()
            mask[inserted] = True
            candidates = candidates[~mask[candidates]]
            subgraph = graph.subgraph(mask)
            factor = cholesky(regularized_laplacian(subgraph, shift))
            Z = sparse_approximate_inverse(factor.L, delta=0.1)
            ranker = ApproxRanker(graph, subgraph, factor, Z, beta=beta)
            ranker.reuse_joins(store, candidates)
            bounds = ranker.score_bounds(candidates)
            scores = ranker.score_batch(candidates)

            assert (bounds >= scores).all()
            held = store.slots(candidates) >= 0
            assert np.isfinite(bounds[held]).all()
            assert np.isposinf(bounds[~held]).all()


def _unbounded(self, edge_ids):
    return np.full(len(edge_ids), np.inf)


def _trace_reductions(result):
    return [entry["trace_reduction"] for entry in result.rounds_log]


def _scored_share(monkeypatch, graph, **options):
    """Run ``proposed``; return it and the share of rounds 2+ it scored."""
    scored = []
    score = ApproxRanker.score_batch

    def counting(ranker, edge_ids):
        scored.append(len(edge_ids))
        return score(ranker, edge_ids)

    with monkeypatch.context() as patch:
        patch.setattr(ApproxRanker, "score_batch", counting)
        result = repro.sparsify(graph, "proposed", **options)
    candidates = sum(entry["candidates"] for entry in result.rounds_log[1:])
    return result, sum(scored) / candidates


class TestSparsifierRuns:
    @pytest.fixture(scope="class")
    def grid(self):
        # Unit weights; more candidates than a round's first batch.
        return grid2d(60, 60, weights="unit")

    def test_grid_picks_match_an_unbounded_walk(self, grid, monkeypatch):
        pruned, share = _scored_share(monkeypatch, grid)
        assert share < 1.0
        monkeypatch.setattr(ApproxRanker, "score_bounds", _unbounded)
        full = repro.sparsify(grid, "proposed")
        assert np.array_equal(pruned.recovered_edge_ids,
                              full.recovered_edge_ids)
        assert _trace_reductions(pruned) == _trace_reductions(full)

    def test_workers_and_sessions_keep_the_fingerprint(self, grid):
        def fingerprint(result):
            data = RunRecord.from_result(result, method="proposed",
                                         label="g").fingerprint()
            data["config"].pop("workers")
            return data

        serial = repro.sparsify(grid, "proposed")
        two_workers = repro.sparsify(grid, "proposed", workers=2)
        session = SparsifierSession(grid)
        session.sparsify("proposed")
        second = session.sparsify("proposed")
        assert session.stats()["hits"].get("tree_phase", 0) == 1
        for result in (two_workers, second):
            assert fingerprint(result) == fingerprint(serial)


class _FixedScores:
    """A stand-in ranker: given scores and bounds for every edge."""

    def __init__(self, scores, bounds):
        self.scores, self.bounds = scores, bounds
        self.scored = 0

    def score_bounds(self, edge_ids):
        return self.bounds[edge_ids]

    def score(self, edge_ids):
        assert (np.diff(edge_ids) > 0).all()  # batches in edge-id order
        self.scored += len(edge_ids)
        return self.scores[edge_ids]


class TestWalk:
    """The on-demand walk against the sorted one, on tie-heavy scores.

    Integer scores tie everywhere, and integer slack makes many bounds
    equal to other candidates' scores, the frontier's hardest case.
    """

    @pytest.mark.parametrize("use_similarity", [True, False])
    @pytest.mark.parametrize("want", [300, 3000, 10 ** 6])
    def test_ties_are_walked_in_edge_id_order(self, use_similarity, want):
        graph = grid2d(60, 60, weights="unit")
        rng = np.random.default_rng(7)
        scores = rng.integers(0, 10, graph.edge_count).astype(np.float64)
        bounds = scores + rng.integers(0, 2, graph.edge_count)
        ranker = _FixedScores(scores, bounds)
        forest = RootedForest(graph, mewst(graph))
        candidates = np.flatnonzero(~forest.tree_edge_mask())
        picks = []
        for lazy in (False, True):
            marker = SimilarityMarker(graph)
            marker.attach_subgraph(forest.tree)
            ranked = (sparsifier._ranked_on_demand(
                ranker, candidates, ranker.score, marker.marked, 256)
                if lazy else sparsifier._ranked(candidates,
                                                scores[candidates]))
            picks.append(sparsifier._pick_edges(ranked, marker, want,
                                                use_similarity))
        assert picks[0] == picks[1]
        if want == 300:
            assert ranker.scored < len(candidates)
