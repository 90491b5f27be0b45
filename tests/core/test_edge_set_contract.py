"""The edge-set contract: batched scoring selects what the loops select.

The batched scorers reorder floating-point reductions, so their scores
match the per-item loop oracles only to rounding.  What users see must
not move: on every Table-1 case, ``proposed`` with the loop oracles of
the tree phase (Eq. 15), of ``ApproxRanker`` (Eq. 20) and of the
column-by-column SPAI patched in picks exactly the edge set the
production path picks.
"""

from collections import Counter

import numpy as np
import pytest

import oracles
import repro
import repro.core.sparsifier
from repro.graph import make_case

TABLE1_CASES = ["ecology2", "thermal2", "parabolic", "tmt_sym", "G3_circuit",
                "NACA0015", "M6", "333SP", "AS365", "NLR"]


def _patch_oracles(monkeypatch):
    """Patch the loop oracles into the sparsifier; count their calls."""
    calls = Counter()

    def tree_phase(graph, forest, edge_ids, beta, joins):
        # The loop grows no joins, so the store stays empty.
        calls["tree_phase"] += 1
        scores = oracles.tree_truncated_trace_reduction(graph, forest,
                                                        edge_ids, beta)
        return scores, edge_ids, None

    class CountingApproxRanker(oracles.OracleApproxRanker):
        def score_batch(self, edge_ids):
            calls["approx"] += 1
            return super().score_batch(edge_ids)

    def spai(L, delta):
        calls["spai"] += 1
        return oracles.sparse_approximate_inverse(L, delta=delta)

    monkeypatch.setattr(repro.core.sparsifier,
                        "tree_truncated_trace_reduction", tree_phase)
    monkeypatch.setattr(repro.core.sparsifier, "ApproxRanker",
                        CountingApproxRanker)
    monkeypatch.setattr(repro.core.sparsifier, "sparse_approximate_inverse",
                        spai)
    return calls


@pytest.mark.parametrize("case", TABLE1_CASES)
def test_oracles_select_the_same_edges(case, monkeypatch):
    graph, _ = make_case(case, scale=0.05, seed=0)
    options = dict(edge_fraction=0.10, rounds=5, seed=1)
    batched = repro.sparsify(graph, "proposed", **options)
    calls = _patch_oracles(monkeypatch)
    looped = repro.sparsify(graph, "proposed", **options)
    assert calls["tree_phase"] >= 1
    assert calls["approx"] >= 1
    assert calls["spai"] >= 1
    assert np.array_equal(batched.edge_mask, looped.edge_mask)
    assert np.array_equal(batched.recovered_edge_ids,
                          looped.recovered_edge_ids)
