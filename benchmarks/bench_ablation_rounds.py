"""Ablation — densification rounds N_r (Algorithm 2).

The paper uses N_r = 5 (recover 2% |V| per round).  Sweeping N_r at a
fixed total budget shows the value of re-ranking against the growing
subgraph: N_r = 1 ranks every edge against the bare tree (and over-
recovers redundant edges); more rounds adapt the ranking.
"""

from __future__ import annotations

import pytest

from repro import sparsify
from repro.core import evaluate_sparsifier
from repro.graph import make_case
from repro.utils.reporting import Table

from conftest import emit, run_once

ROUNDS = [1, 2, 5, 10]
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
    table = Table(["rounds", "kappa", "pcg_iters", "Ts_seconds"])
    for rounds in ROUNDS:
        if rounds in _rows:
            row = _rows[rounds]
            table.add_row([rounds, row["kappa"], row["Ni"], row["Ts"]])
    emit("ablation_rounds", table.render())


@pytest.mark.parametrize("rounds", ROUNDS)
def test_rounds(benchmark, rounds, scale):
    graph = _graph(scale)
    result = run_once(
        benchmark,
        lambda: sparsify(
            graph, "proposed", edge_fraction=0.10, rounds=rounds, seed=1
        ),
    )
    quality = evaluate_sparsifier(graph, result.sparsifier, seed=2)
    _rows[rounds] = {
        "kappa": quality.kappa,
        "Ni": quality.pcg_iterations,
        "Ts": result.setup_seconds,
    }
