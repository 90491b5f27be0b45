"""Ablation — similarity-exclusion ball radius gamma.

When an edge (p, q) is recovered, edges joining ``ball(p, gamma)`` to
``ball(q, gamma)`` in the current subgraph are excluded from recovery
(feGRASS's strategy [13]).  gamma = 0 marks only the recovered edge
itself; larger gamma spreads the budget over independent spectral
deficiencies.  The paper does not publish its radius; this ablation
justifies the default gamma = 2.
"""

from __future__ import annotations

import pytest

from repro import sparsify
from repro.core import evaluate_sparsifier
from repro.graph import make_case
from repro.utils.reporting import Table

from conftest import emit, run_once

GAMMAS = [0, 1, 2, 3]
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
    table = Table(["gamma", "kappa", "pcg_iters", "Ts_seconds"])
    for gamma in GAMMAS:
        if gamma in _rows:
            row = _rows[gamma]
            table.add_row([gamma, row["kappa"], row["Ni"], row["Ts"]])
    emit("ablation_gamma", table.render())


@pytest.mark.parametrize("gamma", GAMMAS)
def test_gamma(benchmark, gamma, scale):
    graph = _graph(scale)
    result = run_once(
        benchmark,
        lambda: sparsify(
            graph, "proposed", edge_fraction=0.10, rounds=5, gamma=gamma,
            seed=1,
        ),
    )
    quality = evaluate_sparsifier(graph, result.sparsifier, seed=2)
    _rows[gamma] = {
        "kappa": quality.kappa,
        "Ni": quality.pcg_iterations,
        "Ts": result.setup_seconds,
    }
