"""Ablation — BFS truncation depth beta (Eq. 12).

The paper fixes beta = 5 and argues the truncated sum captures the
dominant terms because potentials decay away from the injection nodes.
This ablation sweeps beta and records sparsifier quality (kappa) and
sparsification time: quality should saturate around beta ~ 5 while cost
grows with ball size.
"""

from __future__ import annotations

import pytest

from repro import sparsify
from repro.core import evaluate_sparsifier
from repro.graph import make_case
from repro.utils.reporting import Table

from conftest import emit, run_once

BETAS = [1, 2, 3, 5, 8]
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
    table = Table(["beta", "kappa", "pcg_iters", "Ts_seconds"])
    for beta in BETAS:
        if beta in _rows:
            row = _rows[beta]
            table.add_row([beta, row["kappa"], row["Ni"], row["Ts"]])
    emit("ablation_beta", table.render())


@pytest.mark.parametrize("beta", BETAS)
def test_beta(benchmark, beta, scale):
    graph = _graph(scale)
    result = run_once(
        benchmark,
        lambda: sparsify(
            graph, "proposed", edge_fraction=0.10, rounds=5, beta=beta, seed=1
        ),
    )
    quality = evaluate_sparsifier(graph, result.sparsifier, seed=2)
    _rows[beta] = {
        "kappa": quality.kappa,
        "Ni": quality.pcg_iterations,
        "Ts": result.setup_seconds,
    }
