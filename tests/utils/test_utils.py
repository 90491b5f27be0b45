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
from repro.utils import arrays
from repro.utils.arrays import (concat_ranges, gather_ranges, segment_dots,
                                sparse_product)
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


@st.composite
def _ranges(draw):
    """A CSR offset array (int32 or int64, empty rows included) and a
    list of its rows to copy, possibly empty, repeating, in any order."""
    lengths = draw(st.lists(st.integers(0, 5), min_size=1, max_size=12))
    indptr = np.zeros(len(lengths) + 1,
                      dtype=draw(st.sampled_from([np.int32, np.int64])))
    np.cumsum(lengths, out=indptr[1:])
    rows = draw(st.lists(st.integers(0, len(lengths) - 1), max_size=20))
    return indptr, np.asarray(rows, dtype=np.int64)


class TestGatherRanges:
    """scipy's compiled row copy against the numpy gather it replaced."""

    @given(case=_ranges(), seed=st.integers(0, 2 ** 16),
           bad=st.sampled_from([-1, 0]))
    @settings(max_examples=100, deadline=None)
    def test_matches_concat_ranges_and_fancy_indexing(self, case, seed,
                                                      bad):
        indptr, rows = case
        rng = np.random.default_rng(seed)
        first = rng.integers(-9, 9, int(indptr[-1])).astype(indptr.dtype)
        second = rng.standard_normal(int(indptr[-1]))
        starts = indptr[rows]
        flat = concat_ranges(starts, indptr[rows + 1] - starts)
        lengths, firsts, seconds = gather_ranges(indptr, rows, first, second)
        assert np.array_equal(lengths, np.diff(indptr)[rows])
        assert firsts.dtype == first.dtype and seconds.dtype == np.float64
        assert np.array_equal(firsts, first[flat])
        assert np.array_equal(seconds.view(np.int64),
                              second[flat].view(np.int64))
        only_lengths, only = gather_ranges(indptr, rows, first)
        assert np.array_equal(only_lengths, lengths)
        assert np.array_equal(only, first[flat])
        # A row past either end raises instead of reading outside.
        beyond = np.append(rows, bad if bad < 0 else len(indptr) - 1)
        with pytest.raises(IndexError):
            gather_ranges(indptr, beyond, first, second)

    def test_rejects_what_the_kernel_would_misread(self):
        indptr = np.array([0, 2, 5], dtype=np.int64)
        first = np.arange(5, dtype=np.int64)
        with pytest.raises(TypeError):  # the kernel would copy both
            gather_ranges(indptr, [0], first.astype(np.int32))
        with pytest.raises(TypeError):
            gather_ranges(indptr, np.array([0.0]), first)
        with pytest.raises(ValueError):  # not aligned
            gather_ranges(indptr, [0], first, np.zeros(4))
        with pytest.raises(ValueError):  # a range past the arrays
            gather_ranges(np.array([0, 2, 6]), [1], first)
        with pytest.raises(ValueError):  # a reversed range
            gather_ranges(np.array([0, 3, 1]), [1], first)


class TestSegmentDots:
    """scipy's compiled row dot products against gather, multiply and
    ``bincount``: the same products added in the same order."""

    @given(lengths=st.lists(st.integers(0, 6), min_size=1, max_size=10),
           size=st.integers(1, 8), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=100, deadline=None)
    def test_matches_bincount_bit_for_bit(self, lengths, size, seed):
        rng = np.random.default_rng(seed)
        indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        indices = rng.integers(0, size, int(indptr[-1]))
        data = rng.standard_normal(int(indptr[-1])) * 10.0 ** rng.integers(
            -8, 8, int(indptr[-1]))
        x = rng.standard_normal(size)
        segment = np.repeat(np.arange(len(lengths)), lengths)
        expected = np.bincount(segment, weights=data * x[indices],
                               minlength=len(lengths))
        got = segment_dots(indptr, indices, data, x)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        # An offset window reads only its own segments.
        got = segment_dots(indptr[1:], indices, data, x)
        assert np.array_equal(got.view(np.int64),
                              expected[1:].view(np.int64))

    def test_rejects_what_the_kernel_would_misread(self):
        indptr = np.array([0, 2, 3], dtype=np.int64)
        indices = np.array([0, 1, 2], dtype=np.int64)
        data, x = np.ones(3), np.ones(3)
        assert segment_dots(indptr, indices, data, x).tolist() == [2.0, 1.0]
        with pytest.raises(IndexError):  # a read past x
            segment_dots(indptr, indices, data, x[:2])
        with pytest.raises(IndexError):
            segment_dots(indptr, indices - 1, data, x)
        with pytest.raises(ValueError):  # offsets past the entries
            segment_dots(np.array([0, 4]), indices, data, x)
        with pytest.raises(ValueError):  # decreasing offsets
            segment_dots(np.array([0, 2, 1]), indices, data, x)
        with pytest.raises(TypeError):
            segment_dots(indptr, indices.astype(np.int32), data, x)
        with pytest.raises(TypeError):
            segment_dots(indptr, indices, data.astype(np.float32), x)


def _ordered_product(a, b):
    """``a @ b`` as per-row dicts, each sum added in SMMP's order."""
    rows = []
    for i in range(a.shape[0]):
        sums = {}
        for jj in range(a.indptr[i], a.indptr[i + 1]):
            j, v = a.indices[jj], a.data[jj]
            for kk in range(b.indptr[j], b.indptr[j + 1]):
                k = int(b.indices[kk])
                sums[k] = sums.get(k, 0.0) + v * b.data[kk]
        rows.append(sums)
    return rows


@st.composite
def _operands(draw):
    """Two random CSR operands, ``A``'s rows in arbitrary column order."""
    n_row, n_mid, n_col = (draw(st.integers(1, 6)) for _ in range(3))
    index = draw(st.sampled_from([np.int32, np.int64]))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)

    def operand(rows, cols, shuffle):
        mask = rng.random((rows, cols)) < 0.5
        values = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(
            -150, 150, (rows, cols))
        matrix = sp.csr_matrix(np.where(mask, values, 0.0))
        if shuffle:
            for r in range(rows):
                part = slice(matrix.indptr[r], matrix.indptr[r + 1])
                order = rng.permutation(part.stop - part.start)
                matrix.indices[part] = matrix.indices[part][order]
                matrix.data[part] = matrix.data[part][order]
        matrix.indptr = matrix.indptr.astype(index)
        matrix.indices = matrix.indices.astype(index)
        return matrix

    return operand(n_row, n_mid, True), operand(n_mid, n_col, False), n_col


class TestSparseProduct:
    """scipy's SMMP product against the sums it must keep: each entry
    adds its products in the operands' storage order from ``0.0``, and
    a sum of exactly ``0.0`` stays a stored zero."""

    @given(case=_operands())
    @settings(max_examples=100, deadline=None)
    def test_sums_in_storage_order_bit_for_bit(self, case):
        a, b, n_col = case
        indptr, indices, data = sparse_product(
            a.indptr, a.indices, a.data, b.indptr, b.indices, b.data, n_col)
        assert indptr.dtype == indices.dtype == a.indptr.dtype
        expected = _ordered_product(a, b)
        assert np.diff(indptr).tolist() == [len(row) for row in expected]
        for i, row in enumerate(expected):
            part = slice(indptr[i], indptr[i + 1])
            assert indices[part].tolist() == sorted(row)
            want = np.array([row[k] for k in sorted(row)])
            assert np.array_equal(data[part].view(np.int64),
                                  want.view(np.int64))

    def test_an_offset_window_reads_only_its_rows(self):
        a = sp.csr_matrix(np.array([[1.0, 2.0], [3.0, 0.0], [0.0, 4.0]]))
        b = sp.csr_matrix(np.array([[1.0, 1.0], [0.0, 1.0]]))
        indptr, indices, data = sparse_product(
            a.indptr[1:], a.indices, a.data, b.indptr, b.indices, b.data, 2)
        assert indptr.tolist() == [0, 2, 3]
        assert indices.tolist() == [0, 1, 1]
        assert data.tolist() == [3.0, 3.0, 4.0]

    def test_exact_zero_sums_stay_stored(self):
        """``csr_matmat`` drops a sum of exactly 0.0: both an underflowed
        product and a cancellation come back as stored zeros."""
        a = sp.csr_matrix(np.array([[1e-300, 1.0, 1.0]]))
        b = sp.csr_matrix(np.array([[1e-300, 0.0, 2.0],
                                    [0.0, 5.0, 0.0],
                                    [0.0, -5.0, 0.0]]))
        indptr, indices, data = sparse_product(
            a.indptr, a.indices, a.data, b.indptr, b.indices, b.data, 3)
        assert indptr.tolist() == [0, 3]
        assert indices.tolist() == [0, 1, 2]
        assert data.tolist() == [0.0, 0.0, 2e-300]
        assert not np.signbit(data).any()

    def test_rejects_what_the_kernel_would_misread(self, monkeypatch):
        for name in ("csr_matmat_maxnnz", "csr_matmat", "csr_sort_indices"):
            monkeypatch.setattr(arrays, name, _kernel_must_not_run)
        a_ptr = np.array([0, 2], dtype=np.int64)
        a_idx = np.array([0, 1], dtype=np.int64)
        b_ptr = np.array([0, 1, 2], dtype=np.int64)
        b_idx = np.array([0, 1], dtype=np.int64)
        ones = np.ones(2)
        with pytest.raises(TypeError):  # mixed index dtypes
            sparse_product(a_ptr, a_idx.astype(np.int32), ones, b_ptr,
                           b_idx, ones, 2)
        with pytest.raises(TypeError):
            sparse_product(a_ptr, a_idx, ones, b_ptr, b_idx,
                           ones.astype(np.float32), 2)
        with pytest.raises(IndexError):  # an A column past B's rows
            sparse_product(a_ptr, a_idx + 1, ones, b_ptr, b_idx, ones, 2)
        with pytest.raises(ValueError):  # a B range past its arrays
            sparse_product(a_ptr, a_idx, ones, np.array([0, 1, 3]), b_idx,
                           ones, 2)
        with pytest.raises(IndexError):  # a B column past n_col
            sparse_product(a_ptr, a_idx, ones, b_ptr, b_idx, ones, 1)
        with pytest.raises(ValueError):  # an A range past its arrays
            sparse_product(np.array([0, 3]), a_idx, ones, b_ptr, b_idx,
                           ones, 2)
        with pytest.raises(ValueError):  # values shorter than indices
            sparse_product(a_ptr, a_idx, ones[:1], b_ptr, b_idx, ones, 2)


def _kernel_must_not_run(*args):
    raise AssertionError("the kernel ran on inputs it would misread")
