"""Join reuse across rounds (repro.core.ball_join.JoinStore).

A store carried from round to round must hold, after each refresh, only
exact joins of current candidates, never more ids than its cap, and the
scores read from it must have the same bits as scores grown from
scratch.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.api import SparsifierSession
from repro.api.records import RunRecord
from repro.core import ApproxRanker, TreePhaseRanker
from repro.core import ball_join
from repro.core.ball_join import JoinStore
from repro.graph import Graph, regularization_shift, regularized_laplacian
from repro.graph import grid2d, make_case
from repro.linalg import cholesky, sparse_approximate_inverse
from repro.tree import RootedForest, mewst


def _ball(graph, mask, source, beta):
    """Nodes within *beta* hops of *source* over the masked edges."""
    adjacent = {}
    for e in np.flatnonzero(mask):
        a, b = int(graph.u[e]), int(graph.v[e])
        adjacent.setdefault(a, []).append(b)
        adjacent.setdefault(b, []).append(a)
    seen, frontier = {int(source)}, {int(source)}
    for _ in range(beta):
        frontier = {b for a in frontier for b in adjacent.get(a, ())} - seen
        seen |= frontier
    return seen


def _join(graph, mask, edge, beta):
    """Ascending ids of the edges of G between the two endpoint balls."""
    p_ball = _ball(graph, mask, graph.u[edge], beta)
    q_ball = _ball(graph, mask, graph.v[edge], beta)
    return [e for e in range(graph.edge_count)
            if (graph.u[e] in p_ball and graph.v[e] in q_ball)
            or (graph.v[e] in p_ball and graph.u[e] in q_ball)]


def _ranker(graph, mask, shift, beta):
    subgraph = graph.subgraph(mask)
    factor = cholesky(regularized_laplacian(subgraph, shift))
    Z = sparse_approximate_inverse(factor.L, delta=0.1)
    return ApproxRanker(graph, subgraph, factor, Z, beta=beta)


def _bits(scores):
    return np.asarray(scores, dtype=np.float64).view(np.int64)


@st.composite
def _graphs(draw):
    """Weighted graphs on up to 40 nodes, sparse enough to fall apart.

    Edge densities up to 0.3 give anything from isolated nodes and
    several small components to one component with many cycles.
    """
    n = draw(st.integers(1, 40))
    density = draw(st.floats(0.0, 0.3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    u, v = np.nonzero(np.triu(rng.random((n, n)) < density, k=1))
    return Graph(n, u, v, rng.uniform(0.1, 10.0, len(u)))


class TestStoreRefresh:
    @settings(max_examples=100, deadline=None)
    @given(graph=_graphs(), beta=st.integers(1, 5), seed=st.integers(0, 999))
    def test_kept_joins_are_exact_and_scores_keep_their_bits(
            self, graph, beta, seed):
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
            # Insert one or two candidates into S and drop a few more, as
            # the similarity marking does, so that most joins survive.
            leave = rng.random(len(candidates)) < 0.2
            inserted = rng.permutation(candidates)[:rng.integers(0, 3)]
            mask = mask.copy()
            mask[inserted] = True
            candidates = candidates[~leave & ~mask[candidates]]
            ranker = _ranker(graph, mask, shift, beta)
            ranker.reuse_joins(store, candidates)
            scores = ranker.score_batch(candidates)

            assert store.size <= store.capacity
            assert np.isin(store.edge_ids, candidates).all()
            for slot, edge in enumerate(store.edge_ids):
                held = store.ids[store.ptr[slot]:store.ptr[slot + 1]]
                assert held.tolist() == _join(graph, mask, edge, beta)

            scratch = _ranker(graph, mask, shift, beta)
            scratch.reuse_joins(JoinStore(graph), candidates)
            plain = _ranker(graph, mask, shift, beta)
            assert np.array_equal(_bits(scores),
                                  _bits(scratch.score_batch(candidates)))
            assert np.array_equal(_bits(scores),
                                  _bits(plain.score_batch(candidates)))


def _hub_graph(n=40, rim=120, seed=0):
    """A hub joined to every node plus random rim edges: balls cover G."""
    rng = np.random.default_rng(seed)
    pairs = {(0, k) for k in range(1, n)}
    while len(pairs) < n - 1 + rim:
        a, b = sorted(rng.choice(np.arange(1, n), size=2, replace=False))
        pairs.add((int(a), int(b)))
    u, v = zip(*sorted(pairs))
    return Graph(n, u, v, rng.uniform(0.5, 2.0, len(u)))


class TestCap:
    def test_capped_store_scores_like_an_uncapped_one(self, monkeypatch):
        graph = _hub_graph()
        shift = regularization_shift(graph)
        forest = RootedForest(graph, mewst(graph))
        mask = forest.tree_edge_mask()
        off = np.flatnonzero(~mask)
        mask[off[::7]] = True
        candidates = np.flatnonzero(~mask)
        ranker = _ranker(graph, mask, shift, beta=3)
        capped = JoinStore(graph)
        ranker.reuse_joins(capped, candidates)
        assert capped.full
        assert 0 < len(capped.edge_ids) < len(candidates)
        assert capped.size <= capped.capacity
        held = capped.size
        scores = ranker.score_batch(candidates)
        # The joins past the cap are grown while scoring, not stored.
        assert capped.size == held

        monkeypatch.setattr(ball_join, "JOIN_IDS_PER_EDGE", 10 ** 6)
        roomy = JoinStore(graph)
        uncapped = _ranker(graph, mask, shift, beta=3)
        uncapped.reuse_joins(roomy, candidates)
        assert np.array_equal(_bits(scores),
                              _bits(uncapped.score_batch(candidates)))
        assert len(roomy.edge_ids) == len(candidates)
        plain = _ranker(graph, mask, shift, beta=3)
        assert np.array_equal(_bits(scores),
                              _bits(plain.score_batch(candidates)))


def _fingerprint(result):
    """The run's fingerprint without the ``workers`` option."""
    data = RunRecord.from_result(result, method="proposed",
                                 label="g").fingerprint()
    data["config"].pop("workers")
    return data


class TestSparsifierRuns:
    @pytest.fixture(scope="class")
    def graph(self):
        graph, _ = make_case("ecology2", scale=0.1, seed=0)
        return graph

    def test_workers_pick_the_same_edges(self, graph):
        serial = repro.sparsify(graph, "proposed")
        two_workers = repro.sparsify(graph, "proposed", workers=2)
        assert np.array_equal(serial.edge_mask, two_workers.edge_mask)
        assert _fingerprint(serial) == _fingerprint(two_workers)

    def test_a_cached_tree_phase_starts_round_two_empty(self, graph):
        direct = repro.sparsify(graph, "proposed")
        session = SparsifierSession(graph)
        first = session.sparsify("proposed")
        second = session.sparsify("proposed")
        assert session.stats()["hits"].get("tree_phase", 0) == 1
        for result in (first, second):
            assert np.array_equal(result.edge_mask, direct.edge_mask)
            assert _fingerprint(result) == _fingerprint(direct)

    def test_rounds_on_a_grid_match_a_storeless_run(self, monkeypatch):
        graph = grid2d(24, 24, weights="uniform", seed=3)
        reused = repro.sparsify(graph, "proposed", edge_fraction=0.2)
        monkeypatch.setattr(ApproxRanker, "reuse_joins",
                            lambda self, joins, edge_ids: None)
        storeless = repro.sparsify(graph, "proposed", edge_fraction=0.2)
        assert np.array_equal(reused.recovered_edge_ids,
                              storeless.recovered_edge_ids)
        assert [r["trace_reduction"] for r in reused.rounds_log] == \
            [r["trace_reduction"] for r in storeless.rounds_log]
