"""Ablation — SPAI pruning threshold delta (Algorithm 1).

The paper reports nnz(Z~) ~ n log n at delta = 0.1.  This ablation
sweeps delta, recording nnz(Z~) for the sparsifier's final-round factor
and the resulting sparsifier quality.  Expected shape: nnz falls as
delta grows; quality is stable for small delta and degrades once the
columns get too sparse to rank edges.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import sparsify
from repro.core import evaluate_sparsifier
from repro.graph import make_case, regularization_shift, regularized_laplacian
from repro.linalg import cholesky, sparse_approximate_inverse
from repro.utils.reporting import Table

from conftest import emit, run_once

DELTAS = [0.02, 0.05, 0.1, 0.2, 0.5]
_rows: dict = {}
_cache: list = []


def _graph(scale):
    if not _cache:
        _cache.append(make_case("ecology2", scale=scale * 0.5, seed=0)[0])
    return _cache[0]


@pytest.fixture(scope="module", autouse=True)
def report():
    yield
    if not _rows:
        return
    graph = _cache[0]
    n_log_n = int(graph.n * np.log(graph.n))
    table = Table(["delta", "nnz(Z)", "nnz/(n log n)", "kappa", "Ts_seconds"])
    for delta in DELTAS:
        if delta in _rows:
            row = _rows[delta]
            table.add_row(
                [delta, row["nnz"], f"{row['nnz'] / n_log_n:.2f}",
                 row["kappa"], row["Ts"]]
            )
    emit("ablation_delta", table.render())


@pytest.mark.parametrize("delta", DELTAS)
def test_delta(benchmark, delta, scale):
    graph = _graph(scale)
    result = run_once(
        benchmark,
        lambda: sparsify(
            graph, "proposed", edge_fraction=0.10, rounds=5, delta=delta,
            seed=1,
        ),
    )
    quality = evaluate_sparsifier(graph, result.sparsifier, seed=2)
    # Measure nnz(Z~) on the final sparsifier's factor.
    shift = regularization_shift(graph)
    factor = cholesky(regularized_laplacian(result.sparsifier, shift))
    Z = sparse_approximate_inverse(factor.L, delta=delta)
    _rows[delta] = {
        "nnz": int(Z.nnz),
        "kappa": quality.kappa,
        "Ts": result.setup_seconds,
    }


def test_nnz_matches_paper_claim_at_default(scale):
    """At delta=0.1, nnz(Z~) is O(n log n) (paper Sec. 3.2)."""
    if 0.1 not in _rows:
        pytest.skip("delta sweep did not run")
    graph = _cache[0]
    ratio = _rows[0.1]["nnz"] / (graph.n * np.log(graph.n))
    assert 0.3 < ratio < 3.0
