"""Ball tables: each distinct endpoint's ball grown once, bit for bit.

Round 1 grows the tree ball of every distinct candidate endpoint once
(``repro.core.tree_phase``) and each general round the S-balls of its
distinct stale endpoints once (``ApproxRanker.reuse_joins``), both
through :func:`repro.core.ball_join.ball_tables`.  The scores and joins
must equal those of the forms they replaced, which grew a ball per
candidate endpoint (``oracles.per_candidate_tree_phase``) and per block
(``oracles.regrow_joins_per_block``), also when a small table budget
cuts the candidates into several chunks.
"""

import copy

import numpy as np
import pytest

import oracles
import repro
import repro.core.ranking as ranking_module
import repro.core.tree_phase as tree_phase_module
from repro.core import ApproxRanker, ball_join
from repro.core.ball_join import JoinStore
from repro.graph import make_case
from repro.tree import RootedForest, mewst

TABLE1_CASES = ["ecology2", "thermal2", "parabolic", "tmt_sym", "G3_circuit",
                "NACA0015", "M6", "333SP", "AS365", "NLR"]


def _bits(scores):
    return np.asarray(scores, dtype=np.float64).view(np.int64)


def _round_one(graph, run):
    """Round-1 scores and the join store seeded by *run*."""
    forest = RootedForest(graph, mewst(graph))
    candidates = np.flatnonzero(~forest.tree_edge_mask())
    joins = JoinStore(graph)
    joins.reset(forest.tree.adjacency()[:2])
    scores = run(graph, forest, candidates, joins)
    joins.commit()
    return scores, joins


def _production(graph, forest, candidates, joins):
    scores, ids, _ = tree_phase_module.tree_truncated_trace_reduction(
        graph, forest, edge_ids=candidates, beta=5, joins=joins)
    np.testing.assert_array_equal(ids, candidates)
    return scores


def _oracle(graph, forest, candidates, joins):
    return oracles.per_candidate_tree_phase(graph, forest, candidates,
                                            beta=5, joins=joins)


def _assert_same_store(ours, theirs):
    for name in ("edge_ids", "ptr", "ids"):
        np.testing.assert_array_equal(getattr(ours, name),
                                      getattr(theirs, name), err_msg=name)
    assert ours.full == theirs.full


def _counting_chunks(monkeypatch, module):
    """Count the tables *module*'s ``ball_tables`` yields."""
    chunks = []
    tables = module.ball_tables

    def counted(*args):
        for chunk in tables(*args):
            chunks.append(chunk[:2])
            yield chunk

    monkeypatch.setattr(module, "ball_tables", counted)
    return chunks


@pytest.mark.parametrize("case", TABLE1_CASES)
def test_round_one_equals_the_per_candidate_balls(case):
    graph, _ = make_case(case, scale=0.05, seed=0)
    ours, our_joins = _round_one(graph, _production)
    theirs, their_joins = _round_one(graph, _oracle)
    np.testing.assert_array_equal(_bits(ours), _bits(theirs))
    _assert_same_store(our_joins, their_joins)


def test_round_one_in_several_chunks(monkeypatch):
    """A table budget of 3,000 entries cuts ``ba_social`` 0.25's round
    1 into several chunks; scores and joins keep every bit."""
    graph, _ = make_case("ba_social", scale=0.25, seed=0)
    theirs, their_joins = _round_one(graph, _oracle)
    monkeypatch.setattr(ball_join, "BALL_TABLE_ENTRIES", 3_000)
    chunks = _counting_chunks(monkeypatch, tree_phase_module)
    ours, our_joins = _round_one(graph, _production)
    assert len(chunks) >= 3
    np.testing.assert_array_equal(_bits(ours), _bits(theirs))
    _assert_same_store(our_joins, their_joins)


class _Regrowth(ApproxRanker):
    """Regrows every round's joins twice, through production and the
    per-block oracle, into copies of one store, and compares them."""

    def reuse_joins(self, joins, edge_ids):
        twin = copy.copy(joins)
        oracles.regrow_joins_per_block(self, twin, edge_ids)
        super().reuse_joins(joins, edge_ids)
        _assert_same_store(joins, twin)
        self.checked.append(len(joins.edge_ids))


@pytest.mark.parametrize("case, scale, budget", [
    ("NLR", 0.05, None), ("ecology2", 0.05, None),
    ("ba_social", 0.25, 3_000),
])
def test_regrowth_equals_the_per_block_balls(case, scale, budget,
                                             monkeypatch):
    graph, _ = make_case(case, scale=scale, seed=0)
    expected = repro.sparsify(graph, "proposed")
    checked = []
    monkeypatch.setattr(_Regrowth, "checked", checked, raising=False)
    monkeypatch.setattr(repro.core.sparsifier, "ApproxRanker", _Regrowth)
    if budget is not None:
        monkeypatch.setattr(ball_join, "BALL_TABLE_ENTRIES", budget)
    chunks = _counting_chunks(monkeypatch, ranking_module)
    result = repro.sparsify(graph, "proposed")
    assert len(checked) == len(result.rounds_log) - 1 >= 1
    if budget is not None:
        assert len(chunks) > len(checked)
    np.testing.assert_array_equal(result.recovered_edge_ids,
                                  expected.recovered_edge_ids)


@pytest.fixture(scope="module")
def nlr():
    graph, _ = make_case("NLR", scale=1.0, seed=0)
    return graph


def test_round_one_grows_each_endpoint_ball_once(nlr, monkeypatch):
    """Full ``NLR``'s 31,977 candidates have 15,794 distinct endpoints:
    round 1 grows 15,794 tree balls, where one per candidate endpoint
    was 63,954."""
    grown = []
    tree_balls = tree_phase_module._tree_balls

    def counted(tree, nodes, beta):
        grown.extend(np.asarray(nodes).tolist())
        return tree_balls(tree, nodes, beta)

    monkeypatch.setattr(tree_phase_module, "_tree_balls", counted)
    forest = RootedForest(nlr, mewst(nlr))
    candidates = np.flatnonzero(~forest.tree_edge_mask())
    tree_phase_module.tree_truncated_trace_reduction(
        nlr, forest, edge_ids=candidates, beta=5)
    endpoints = np.unique(np.concatenate([nlr.u[candidates],
                                          nlr.v[candidates]]))
    assert len(candidates) == 31_977
    assert len(grown) == len(endpoints) == 15_794
    assert sorted(grown) == endpoints.tolist()


def test_regrowth_grows_each_stale_endpoint_ball_once(nlr, monkeypatch):
    """Every general round of a full ``NLR`` run grows the S-ball of each
    distinct endpoint of its stale candidates once."""
    grown, stale = [], []
    ball_sets, retain = ranking_module.ball_sets, JoinStore.retain

    def counted(indptr, neighbors, sources, layers):
        grown[-1].extend(np.asarray(sources).tolist())
        return ball_sets(indptr, neighbors, sources, layers)

    def tracked(store, adjacency, edge_ids, beta):
        missing = retain(store, adjacency, edge_ids, beta)
        stale.append(np.unique(np.concatenate(
            [nlr.u[missing], nlr.v[missing]])).tolist())
        grown.append([])
        return missing

    monkeypatch.setattr(ranking_module, "ball_sets", counted)
    monkeypatch.setattr(JoinStore, "retain", tracked)
    repro.sparsify(nlr, "proposed")
    assert len(stale) == 4
    for ours, expected in zip(grown, stale):
        assert sorted(ours) == expected
