"""Tests for the similarity-exclusion marker and the batched picking walk.

The walk (``repro.core.sparsifier._pick_edges``) finds the similar edges
of a batch of candidates in one call and resolves them in walk order;
it must pick, mark and score exactly as the per-pick walk of
``tests/oracles.py`` does.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import repro.core.sparsifier as sparsifier
from repro.core import SimilarityMarker
from repro.graph import Graph
from repro.tree import mewst


@pytest.fixture()
def ladder():
    """Ladder graph: two rails 0-1-2-3 and 4-5-6-7 plus rungs."""
    edges = []
    for k in range(3):
        edges.append((k, k + 1, 1.0))
        edges.append((k + 4, k + 5, 1.0))
    for k in range(4):
        edges.append((k, k + 4, 1.0))
    return Graph.from_edges(8, edges)


def _mark(marker, p, q):
    """Pick the edge ``(p, q)``: mark its similar edges, as the walk does."""
    ptr, eids = marker.similar_edges([marker.graph.edge_lookup()[(p, q)]])
    assert ptr.tolist() == [0, len(eids)]
    return marker.mark_similar(eids)


def test_requires_attach(ladder):
    marker = SimilarityMarker(ladder, gamma=1)
    with pytest.raises(RuntimeError):
        marker.similar_edges([0])


def test_marks_parallel_edges(ladder):
    """Marking rung (1,5) should mark the neighboring rungs too."""
    marker = SimilarityMarker(ladder, gamma=1)
    marker.attach_subgraph(ladder)
    _mark(marker, 1, 5)
    lookup = ladder.edge_lookup()
    assert marker.is_marked(lookup[(1, 5)])
    assert marker.is_marked(lookup[(0, 4)])
    assert marker.is_marked(lookup[(2, 6)])
    # A far rung is outside gamma=1 balls.
    assert not marker.is_marked(lookup[(3, 7)])


def test_gamma_zero_marks_only_direct_edge(ladder):
    marker = SimilarityMarker(ladder, gamma=0)
    marker.attach_subgraph(ladder)
    _mark(marker, 1, 5)
    lookup = ladder.edge_lookup()
    assert marker.is_marked(lookup[(1, 5)])
    assert not marker.is_marked(lookup[(0, 4)])


def test_marks_accumulate(ladder):
    marker = SimilarityMarker(ladder, gamma=0)
    marker.attach_subgraph(ladder)
    _mark(marker, 0, 4)
    _mark(marker, 3, 7)
    lookup = ladder.edge_lookup()
    assert marker.is_marked(lookup[(0, 4)])
    assert marker.is_marked(lookup[(3, 7)])


def test_mark_count_returned(ladder):
    marker = SimilarityMarker(ladder, gamma=1)
    marker.attach_subgraph(ladder)
    first = _mark(marker, 1, 5)
    assert first >= 3
    # Re-marking the same region adds nothing new.
    second = _mark(marker, 1, 5)
    assert second == 0


def test_balls_in_subgraph_not_graph(ladder):
    """Balls grow in the attached subgraph, not in the full graph."""
    # Attach only the bottom rail: balls around 1 and 5 cannot meet
    # through rungs, so no rung except... none are subgraph edges, but
    # marking uses *graph* edges between ball nodes.
    rail = ladder.subgraph(
        np.array([k for k in range(ladder.edge_count)
                  if ladder.v[k] == ladder.u[k] + 1])
    )
    marker = SimilarityMarker(ladder, gamma=1)
    marker.attach_subgraph(rail)
    _mark(marker, 1, 5)
    lookup = ladder.edge_lookup()
    # Ball(1) = {0,1,2} along the rail; ball(5) = {4,5,6}; graph edges
    # joining them are exactly the rungs (0,4), (1,5), (2,6).
    assert marker.is_marked(lookup[(0, 4)])
    assert marker.is_marked(lookup[(1, 5)])
    assert marker.is_marked(lookup[(2, 6)])
    assert not marker.is_marked(lookup[(3, 7)])


def test_mark_similar_counts_only_new_marks(ladder):
    marker = SimilarityMarker(ladder, gamma=0)
    assert marker.mark_similar([0, 2]) == 2
    assert marker.mark_similar([2, 5]) == 1
    assert np.flatnonzero(marker.marked).tolist() == [0, 2, 5]


def test_walk_skips_what_an_earlier_pick_of_its_batch_marked(ladder):
    """With the rails as ``S``, picking rung (1,5) marks rungs (0,4) and
    (2,6): the second-best rung, in the same batch, is passed over and
    the next batch picks (3,7)."""
    rails = ladder.subgraph(ladder.v == ladder.u + 1)
    lookup = ladder.edge_lookup()
    rungs = [lookup[pair] for pair in ((1, 5), (0, 4), (2, 6), (3, 7))]
    scores = np.zeros(ladder.edge_count)
    scores[rungs] = [4.0, 3.0, 2.0, 1.0]
    candidates = np.sort(rungs)
    marker = SimilarityMarker(ladder, gamma=1)
    marker.attach_subgraph(rails)
    chosen, gains = sparsifier._pick_edges(
        sparsifier._ranked(candidates, scores[candidates]), marker, 2, True)
    assert chosen == [rungs[0], rungs[3]] and gains == [4.0, 1.0]
    assert marker.marked[rungs].all()


def test_rejects_negative_gamma(ladder):
    with pytest.raises(ValueError):
        SimilarityMarker(ladder, gamma=-1)


@st.composite
def _subgraph_cases(draw):
    """A graph on up to 30 nodes, a subgraph ``S`` of it (a spanning
    forest plus some other edges) and ``S``'s candidates.

    Low densities give isolated nodes and several components.
    """
    n = draw(st.integers(2, 30))
    density = draw(st.floats(0.05, 0.4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    u, v = np.nonzero(np.triu(rng.random((n, n)) < density, k=1))
    graph = Graph(n, u, v, rng.uniform(0.5, 2.0, len(u)))
    mask = np.zeros(graph.edge_count, dtype=bool)
    mask[mewst(graph)] = True
    mask |= rng.random(graph.edge_count) < draw(st.floats(0.0, 0.3))
    return graph, graph.subgraph(mask), np.flatnonzero(~mask), rng


@given(case=_subgraph_cases(), gamma=st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_similar_edges_match_the_per_pick_balls(case, gamma):
    graph, subgraph, candidates, rng = case
    count = rng.integers(0, 12) if graph.edge_count else 0
    edge_ids = rng.integers(0, max(graph.edge_count, 1), count)
    marker = SimilarityMarker(graph, gamma=gamma)
    marker.attach_subgraph(subgraph)
    ptr, eids = marker.similar_edges(edge_ids)
    oracle = oracles.PerPickMarker(graph, gamma=gamma)
    oracle.attach_subgraph(subgraph)
    assert len(ptr) == len(edge_ids) + 1
    for k, edge in enumerate(edge_ids):
        np.testing.assert_array_equal(
            eids[ptr[k]:ptr[k + 1]],
            oracle.similar_edges(int(graph.u[edge]), int(graph.v[edge])))


@given(case=_subgraph_cases(), gamma=st.integers(0, 3),
       use_similarity=st.booleans(), on_demand=st.booleans(),
       data=st.data())
@settings(max_examples=200, deadline=None)
def test_walk_matches_the_per_pick_walk(case, gamma, use_similarity,
                                        on_demand, data):
    """Picks, their order, gains and the final marks of the batched walk
    equal the per-pick oracle's, on integer scores that tie everywhere
    (zero and negative ones included) and any ``per_round``."""
    graph, subgraph, candidates, rng = case
    scores = rng.integers(-1, 4, graph.edge_count).astype(np.float64)
    bounds = scores + rng.integers(0, 2, graph.edge_count)
    per_round = data.draw(st.integers(1, max(1, len(candidates))))
    first = data.draw(st.integers(1, max(1, len(candidates))))
    marker = SimilarityMarker(graph, gamma=gamma)
    marker.attach_subgraph(subgraph)
    if on_demand:
        ranker = SimpleNamespace(score_bounds=lambda ids: bounds[ids])
        ranked = sparsifier._ranked_on_demand(
            ranker, candidates, lambda ids: scores[ids], marker.marked, first)
    else:
        ranked = sparsifier._ranked(candidates, scores[candidates])
    got = sparsifier._pick_edges(ranked, marker, per_round, use_similarity)
    oracle = oracles.PerPickMarker(graph, gamma=gamma)
    oracle.attach_subgraph(subgraph)
    expected = oracles.pick_edges(
        sparsifier._ranked(candidates, scores[candidates]), oracle,
        per_round, use_similarity)
    assert got == expected
    np.testing.assert_array_equal(marker.marked, oracle.marked)
