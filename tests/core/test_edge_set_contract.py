"""The edge-set contract: batched scoring selects what the loops select.

The batched scorers reorder floating-point reductions, so their scores
match the per-item loop oracles only to rounding.  What users see must
not move: on every Table-1 case, ``proposed`` with the oracle rankers
and the column-by-column SPAI patched in picks exactly the edge set the
production path picks.
"""

import numpy as np
import pytest

import oracles
import repro
import repro.core.sparsifier
from repro.graph import make_case

TABLE1_CASES = ["ecology2", "thermal2", "parabolic", "tmt_sym", "G3_circuit",
                "NACA0015", "M6", "333SP", "AS365", "NLR"]


@pytest.mark.parametrize("case", TABLE1_CASES)
def test_oracles_select_the_same_edges(case, monkeypatch):
    graph, _ = make_case(case, scale=0.05, seed=0)
    options = dict(edge_fraction=0.10, rounds=5, seed=1)
    batched = repro.sparsify(graph, "proposed", **options)
    monkeypatch.setattr(repro.core.sparsifier, "TreePhaseRanker",
                        oracles.OracleTreePhaseRanker)
    monkeypatch.setattr(repro.core.sparsifier, "ApproxRanker",
                        oracles.OracleApproxRanker)
    monkeypatch.setattr(repro.core.sparsifier, "sparse_approximate_inverse",
                        oracles.sparse_approximate_inverse)
    looped = repro.sparsify(graph, "proposed", **options)
    assert np.array_equal(batched.edge_mask, looped.edge_mask)
    assert np.array_equal(batched.recovered_edge_ids,
                          looped.recovered_edge_ids)
