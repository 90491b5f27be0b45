"""Batched scorers and SPAI against their per-item loop oracles.

Small random graphs cover the corners the segmented array code has to
get right: disconnected graphs, balls that swallow the whole component
(beta at or above the diameter), nodes inside both balls of a candidate
(where the q-side potential wins), single-candidate batches, explicit
zeros in the Cholesky factor and SPAI's keep-threshold floor.  The
ball-pair edge sum the loop oracles share is pinned down on a toy graph
at the end.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from repro.core import ApproxRanker, TreePhaseRanker
from repro.graph import Graph, regularization_shift, regularized_laplacian
from repro.linalg import cholesky, sparse_approximate_inverse
from repro.linalg.spai import dependency_levels
from repro.tree import RootedForest, mewst


@st.composite
def small_graphs(draw):
    """Random weighted graphs of 2-14 nodes, often disconnected."""
    n = draw(st.integers(2, 14))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=1, max_size=3 * n,
    ))
    weights = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.7]),
                            min_size=len(pairs), max_size=len(pairs)))
    edges = {}
    for (a, b), w in zip(pairs, weights):
        if a != b:
            edges[(min(a, b), max(a, b))] = w
    if not edges:
        edges[(0, 1)] = 1.0
    return Graph.from_edges(n, [(a, b, w) for (a, b), w in edges.items()])


def _assert_single_candidate_batches(ranker, off, whole):
    singles = np.concatenate([ranker.score_batch(off[k:k + 1])
                              for k in range(len(off))])
    assert np.array_equal(singles, whole)


@given(graph=small_graphs(), beta=st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_tree_phase_matches_loop_oracle(graph, beta):
    forest = RootedForest(graph, mewst(graph))
    off = np.flatnonzero(~forest.tree_edge_mask())
    if len(off) == 0:
        return
    ranker = TreePhaseRanker(graph, forest, beta=beta)
    got = ranker.score_batch(off)
    expected = oracles.tree_truncated_trace_reduction(graph, forest, off,
                                                      beta=beta)
    np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-300)
    _assert_single_candidate_batches(ranker, off, got)


@given(graph=small_graphs(), beta=st.integers(1, 6),
       extra=st.integers(0, 3), delta=st.sampled_from([0.0, 0.1, 0.5]))
@settings(max_examples=60, deadline=None)
def test_approx_ranker_matches_loop_oracle(graph, beta, extra, delta):
    forest = RootedForest(graph, mewst(graph))
    mask = forest.tree_edge_mask()
    off = np.flatnonzero(~mask)
    mask[off[:extra]] = True
    off = off[extra:]
    if len(off) == 0:
        return
    subgraph = graph.subgraph(mask)
    factor = cholesky(regularized_laplacian(subgraph,
                                            regularization_shift(graph)))
    Z = sparse_approximate_inverse(factor.L, delta=delta)
    ranker = ApproxRanker(graph, subgraph, factor, Z, beta=beta)
    got = ranker.score_batch(off)
    expected = oracles.approximate_trace_reduction(graph, subgraph, factor,
                                                   Z, off, beta=beta)
    np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-300)
    _assert_single_candidate_batches(ranker, off, got)


def _assert_same_matrix(got, expected):
    assert np.array_equal(got.indptr, expected.indptr)
    assert np.array_equal(got.indices, expected.indices)
    assert np.array_equal(got.data, expected.data)


@given(graph=small_graphs(), zeros=st.integers(0, 4),
       delta=st.sampled_from([0.0, 0.1, 0.3, 0.9]),
       keep=st.sampled_from([None, 1, 2, 3]))
@settings(max_examples=60, deadline=None)
def test_spai_matches_column_loop(graph, zeros, delta, keep):
    """Level-scheduled Algorithm 1 == the column loop, bit for bit.

    Some off-diagonal entries of the factor are overwritten with
    explicit zeros, which both must skip; small keep thresholds drive
    most pruned columns into the top-k floor.
    """
    factor = cholesky(regularized_laplacian(graph,
                                            regularization_shift(graph)))
    L = sp.csc_matrix(factor.L, copy=True)
    L.sort_indices()
    off = np.flatnonzero(L.indices != np.repeat(np.arange(L.shape[0]),
                                                np.diff(L.indptr)))
    L.data[off[:zeros]] = 0.0
    _assert_same_matrix(
        sparse_approximate_inverse(L, delta=delta, keep_threshold=keep),
        oracles.sparse_approximate_inverse(L, delta=delta,
                                           keep_threshold=keep),
    )


@given(n=st.integers(1, 12), density=st.floats(0.0, 0.8),
       seed=st.integers(0, 999), delta=st.sampled_from([0.0, 0.2, 0.9]),
       keep=st.sampled_from([1, 2, 4]))
@settings(max_examples=60, deadline=None)
def test_spai_matches_column_loop_on_arbitrary_lower_triangles(
        n, density, seed, delta, keep):
    """Patterns that are no Cholesky factor's: dependencies outside the
    elimination-tree ancestry, integer values that tie in the floor
    (``delta = 0.9`` sends most pruned columns there)."""
    rng = np.random.default_rng(seed)
    dense = np.tril(-rng.integers(0, 3, size=(n, n)).astype(float), k=-1)
    dense[rng.random((n, n)) > density] = 0.0
    dense += np.diag(rng.integers(1, 4, size=n).astype(float))
    L = sp.csc_matrix(np.tril(dense))
    _assert_same_matrix(
        sparse_approximate_inverse(L, delta=delta, keep_threshold=keep),
        oracles.sparse_approximate_inverse(L, delta=delta,
                                           keep_threshold=keep),
    )


def test_dependency_levels_order_every_dependency():
    # Column 0 needs 1 and 2, but 2 is no etree ancestor of 0 (its
    # parent 1 is a root): the etree depth alone puts 0 and 2 on one
    # level.
    dep_col = np.array([0, 0, 2])
    dep_row = np.array([1, 2, 3])
    levels = dependency_levels(4, dep_col, dep_row)
    assert (levels[dep_row] < levels[dep_col]).all()
    assert levels.tolist() == [2, 0, 1, 0]


class TestBallPairEdgeSum:
    @pytest.fixture()
    def graph(self):
        # Square 0-1-2-3-0 plus diagonal (0, 2).
        return Graph.from_edges(
            4,
            [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (0, 3, 4.0), (0, 2, 5.0)],
        )

    def _sum(self, graph, ball_p, ball_q, values):
        indptr, nbr, eid = graph.adjacency()
        stamp = np.zeros(graph.n, dtype=np.int64)
        stamp[np.asarray(ball_q)] = 1
        return oracles.ball_pair_edge_sum(
            indptr, nbr, eid, graph.w,
            np.asarray(ball_p, dtype=np.int64), stamp, 1,
            np.asarray(values, dtype=np.float64),
        )

    def test_single_edge(self, graph):
        values = np.array([1.0, 0.0, 0.0, 0.0])
        # Only edge (0,1) joins {0} to {1}: w=1, diff=1.
        assert self._sum(graph, [0], [1], values) == pytest.approx(1.0)

    def test_counts_each_edge_once(self, graph):
        """Edge with both endpoints in both balls is not double counted."""
        values = np.array([2.0, 1.0, 0.0, 0.0])
        result = self._sum(graph, [0, 1], [0, 1], values)
        # Only edge (0,1) has both endpoints inside both balls -> 1*(1)^2;
        # but edges from 0 or 1 leaving the ball of q don't count.
        assert result == pytest.approx(1.0)

    def test_full_balls_give_laplacian_quadratic_form(self, graph):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(4)
        everything = self._sum(graph, [0, 1, 2, 3], [0, 1, 2, 3], values)
        expected = float(
            np.sum(graph.w * (values[graph.u] - values[graph.v]) ** 2)
        )
        assert everything == pytest.approx(expected)

    def test_disjoint_balls_no_edges(self, graph):
        values = np.zeros(4)
        # Balls {1} and {3} are joined by no direct edge.
        assert self._sum(graph, [1], [3], values) == 0.0

    def test_empty_ball(self, graph):
        assert self._sum(graph, [], [0, 1], np.zeros(4)) == 0.0
