"""Tests for repro.utils (rng, timers, validation, reporting, arrays)."""

import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import (
    Table,
    Timer,
    as_rng,
    check_square_sparse,
    format_bytes,
    format_seconds,
)
from repro.utils.arrays import concat_ranges
from repro.utils.reporting import format_count


class TestAsRng:
    def test_int_seed_is_deterministic(self):
        a = as_rng(42).standard_normal(5)
        b = as_rng(42).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = as_rng(1).standard_normal(5)
        b = as_rng(2).standard_normal(5)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)


class TestTimer:
    def test_elapsed_nonnegative(self):
        with Timer() as t:
            pass
        assert t.elapsed >= 0.0

    def test_measures_sleep(self):
        with Timer() as t:
            time.sleep(0.02)
        assert t.elapsed >= 0.015


class TestValidation:
    def test_check_square_sparse(self):
        check_square_sparse("A", sp.eye(3, format="csr"))
        with pytest.raises(TypeError):
            check_square_sparse("A", np.eye(3))
        with pytest.raises(ValueError):
            check_square_sparse("A", sp.random(3, 4))


class TestReporting:
    def test_format_seconds_scales(self):
        assert format_seconds(123.4) == "123"
        assert format_seconds(1.234) == "1.23"
        assert format_seconds(0.01234) == "0.012"

    def test_format_bytes(self):
        assert format_bytes(512) == "512.0B"
        assert format_bytes(2048) == "2.0KB"
        assert "GB" in format_bytes(3 * 1024**3)

    def test_format_count(self):
        assert format_count(1_000_000) == "1.0E+06"
        assert format_count(123) == "123"

    def test_table_renders_rows(self):
        table = Table(["a", "b"])
        table.add_row(["x", 1.23456])
        text = table.render()
        assert "a" in text and "x" in text and "1.235" in text

    def test_table_rejects_bad_row(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(["only one"])


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
