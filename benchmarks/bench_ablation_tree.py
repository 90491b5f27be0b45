"""Ablation — spanning-tree choice (Algorithm 2, step 1).

The paper builds on feGRASS's maximum effective weight spanning tree
(MEWST).  This ablation swaps in a plain maximum-weight spanning tree
and a weight-oblivious BFS tree, recording total stretch of the tree
and final sparsifier quality: lower-stretch trees should start the
densification closer to the target and end with lower kappa.
"""

from __future__ import annotations

import pytest

from repro import sparsify
from repro.core import evaluate_sparsifier
from repro.graph import make_case
from repro.tree import RootedForest, total_stretch
from repro.utils.reporting import Table

from conftest import emit, run_once

METHODS = ["mewst", "max_weight", "bfs"]
_rows: dict = {}
_cache: list = []


def _graph(scale):
    if not _cache:
        _cache.append(make_case("thermal2", scale=scale * 0.5, seed=0)[0])
    return _cache[0]


@pytest.fixture(scope="module", autouse=True)
def report():
    yield
    if not _rows:
        return
    table = Table(["tree", "total_stretch", "kappa", "pcg_iters", "Ts_seconds"])
    for method in METHODS:
        if method in _rows:
            row = _rows[method]
            table.add_row(
                [method, row["stretch"], row["kappa"], row["Ni"], row["Ts"]]
            )
    emit("ablation_tree", table.render())


@pytest.mark.parametrize("method", METHODS)
def test_tree_method(benchmark, method, scale):
    graph = _graph(scale)
    result = run_once(
        benchmark,
        lambda: sparsify(
            graph, "proposed", edge_fraction=0.10, rounds=5,
            tree_method=method, seed=1,
        ),
    )
    quality = evaluate_sparsifier(graph, result.sparsifier, seed=2)
    forest = RootedForest(graph, result.tree_edge_ids)
    _rows[method] = {
        "stretch": total_stretch(graph, forest),
        "kappa": quality.kappa,
        "Ni": quality.pcg_iterations,
        "Ts": result.setup_seconds,
    }
