"""Tests for the vectorized micro-kernels in repro.core._kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core._kernels import ball_pair_edge_sum, ball_pair_edge_sum_flat
from repro.graph import Graph
from repro.utils.arrays import concat_ranges


class TestConcatRanges:
    def test_basic(self):
        out = concat_ranges(np.array([0, 10]), np.array([3, 2]))
        np.testing.assert_array_equal(out, [0, 1, 2, 10, 11])

    def test_empty(self):
        assert len(concat_ranges(np.array([]), np.array([]))) == 0

    def test_zero_length_ranges_skipped(self):
        out = concat_ranges(np.array([5, 7, 9]), np.array([2, 0, 1]))
        np.testing.assert_array_equal(out, [5, 6, 9])

    def test_single_range(self):
        np.testing.assert_array_equal(
            concat_ranges(np.array([4]), np.array([4])), [4, 5, 6, 7]
        )

    def test_all_zero_lengths(self):
        assert len(concat_ranges(np.array([1, 2]), np.array([0, 0]))) == 0

    def test_all_empty_ranges_regression(self):
        """All-zero lengths early-return before any cum[-1] path.

        Pins down the defensive restructure (total-length check first):
        the old filter-then-check path also handled this, but the guard
        keeps any future edit from reordering the empty check after the
        cumsum indexing.  The empty result must carry the right dtype
        so downstream fancy indexing keeps working.
        """
        out = concat_ranges(np.arange(100), np.zeros(100, dtype=np.int64))
        assert out.shape == (0,)
        assert out.dtype == np.int64
        # An isolated node's adjacency range is the canonical producer
        # of the all-empty case: indexing with the result must not raise.
        assert len(np.arange(10)[out]) == 0

    def test_empty_input_arrays(self):
        out = concat_ranges(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert out.shape == (0,)
        assert out.dtype == np.int64

    def test_negative_lengths_dropped(self):
        """Negative lengths are treated as empty ranges, not corruption."""
        out = concat_ranges(np.array([0, 5, 9]), np.array([3, -1, 2]))
        np.testing.assert_array_equal(out, [0, 1, 2, 9, 10])

    @given(
        st.lists(
            st.tuples(st.integers(0, 1000), st.integers(0, 20)),
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_naive(self, ranges):
        starts = np.array([s for s, _ in ranges], dtype=np.int64)
        lengths = np.array([l for _, l in ranges], dtype=np.int64)
        expected = np.concatenate(
            [np.arange(s, s + l) for s, l in ranges] or [np.empty(0)]
        ).astype(np.int64)
        np.testing.assert_array_equal(concat_ranges(starts, lengths), expected)


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
        return ball_pair_edge_sum(
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

    def test_flat_variant_matches(self, graph):
        """ball_pair_edge_sum == its pre-flattened twin on cached input."""
        rng = np.random.default_rng(1)
        values = rng.standard_normal(4)
        indptr, nbr, eid = graph.adjacency()
        ball_p = np.array([0, 1], dtype=np.int64)
        stamp = np.zeros(graph.n, dtype=np.int64)
        stamp[[1, 2]] = 1
        expected = ball_pair_edge_sum(
            indptr, nbr, eid, graph.w, ball_p, stamp, 1, values
        )
        starts = indptr[ball_p]
        lengths = indptr[ball_p + 1] - starts
        flat = concat_ranges(starts, lengths)
        got = ball_pair_edge_sum_flat(
            np.repeat(ball_p, lengths), nbr[flat], eid[flat],
            graph.w, stamp, 1, values,
        )
        assert got == expected
