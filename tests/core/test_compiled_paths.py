"""The Eq. 20 s-value stage on scipy's compiled kernels, bit for bit.

``ApproxRanker`` gathers ``Z`` columns with ``csr_row_index`` and sums
each ``z~_a . u`` with ``csr_matvec`` over a filled
:class:`~repro.core.ball_join.LookupTable`.  Both add the same products
in the same order from ``0.0`` as the numpy forms they replaced
(``oracles.NumpyApproxRanker``), so the scores must keep every bit; a
scipy build that fused the multiply-adds would fail here.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import repro
import repro.core.sparsifier
from repro.core import ApproxRanker
from repro.core.ball_join import LookupTable
from repro.graph import make_case

TABLE1_CASES = ["ecology2", "thermal2", "parabolic", "tmt_sym", "G3_circuit",
                "NACA0015", "M6", "333SP", "AS365", "NLR"]


def _bits(scores):
    return np.asarray(scores, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("case", TABLE1_CASES)
def test_scores_equal_the_numpy_reference(case, monkeypatch):
    """Every batch of a ``proposed`` run, scored from the round's stored
    joins and again with every join grown, equals the numpy s-value
    path's scores bit for bit, through both routes."""
    counts = Counter()

    class Checked(ApproxRanker):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.args = args, kwargs

        def score_batch(self, edge_ids):
            got = super().score_batch(edge_ids)
            args, kwargs = self.args
            stored = oracles.NumpyApproxRanker(*args, **kwargs)
            stored._joins = self._joins
            grown = ApproxRanker(*args, **kwargs)
            grown_reference = oracles.NumpyApproxRanker(*args, **kwargs)
            assert np.array_equal(_bits(got),
                                  _bits(stored.score_batch(edge_ids)))
            assert np.array_equal(_bits(got),
                                  _bits(grown.score_batch(edge_ids)))
            assert np.array_equal(
                _bits(got), _bits(grown_reference.score_batch(edge_ids)))
            held = np.count_nonzero(self._joins.slots(edge_ids) >= 0)
            counts["stored"] += held
            counts["grown"] += len(edge_ids)
            return got

    graph, _ = make_case(case, scale=0.05, seed=0)
    monkeypatch.setattr(repro.core.sparsifier, "ApproxRanker", Checked)
    repro.sparsify(graph, "proposed", edge_fraction=0.10, rounds=5, seed=1)
    assert counts["stored"] > 0
    assert counts["grown"] > 0


@given(n=st.integers(1, 9), rows=st.integers(1, 70), seed=st.integers(0, 999))
@settings(max_examples=60, deadline=None)
def test_table_dots_match_lookup_multiply_and_bincount(n, rows, seed):
    rng = np.random.default_rng(seed)
    table = LookupTable(n, rows, np.float64, 0.0)
    cells = np.unique(rng.integers(0, rows * n, rng.integers(0, rows * n + 1)))
    e_rows, e_cols = np.divmod(cells, n)
    values = rng.standard_normal(len(cells))
    q_rows = np.sort(rng.integers(0, rows, rng.integers(0, 40)))
    lengths = rng.integers(0, 5, len(q_rows))
    q_cols = rng.integers(0, n, int(lengths.sum()))
    q_values = rng.standard_normal(len(q_cols))
    entry = np.repeat(np.arange(len(q_rows)), lengths)
    (at,) = table.lookup(e_rows, e_cols, values, [(q_rows[entry], q_cols)])
    expected = np.bincount(entry, weights=q_values * at,
                           minlength=len(q_rows))
    got = table.dots(e_rows, e_cols, values, q_rows, lengths, q_cols,
                     q_values)
    assert np.array_equal(_bits(got), _bits(expected))
    assert not table._table.any()  # cleared for the next call


def test_table_dots_check_their_columns():
    table = LookupTable(4, 8, np.float64, 0.0)
    rows, cols, values = np.array([0, 1]), np.array([3, 0]), np.ones(2)
    q_rows, lengths = np.array([0]), np.array([1])
    # Column 4 of row 0 is cell 0 of row 1: a wrong value, so it raises.
    for bad in (4, -1):
        with pytest.raises(IndexError):
            table.dots(rows, cols, values, q_rows, lengths, np.array([bad]),
                       np.ones(1))
    assert table.dots(rows, cols, values, q_rows, lengths, np.array([3]),
                      np.full(1, 2.0)).tolist() == [2.0]
