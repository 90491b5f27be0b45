"""Shard-parallel pipeline benchmarks.

``test_sharded_smoke`` is part of ``make bench-smoke``: a quick
sharded-vs-monolithic comparison on a ~14k-node generated grid that
doubles as a functional gate (determinism across the shard worker
pool, connectivity, cut accounting).  The full shard-scaling record
set (1/2/4 shards into the BENCH trajectory) lives in
``bench_table1_sparsification.py``; the executable scaling guide is
``docs/scaling.md``.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.api import sparsify
from repro.graph import grid2d, is_connected
from repro.utils.reporting import Table

from conftest import emit, run_once

SMOKE_SIDE = 120          # ~14.4k nodes, ~28.7k edges
SMOKE_FRACTION = 0.05
SMOKE_ROUNDS = 2


def test_sharded_smoke(benchmark):
    """Sharded run on a ~14k-node grid: timed, validated, compared."""
    graph = grid2d(SMOKE_SIDE, SMOKE_SIDE, weights="uniform", seed=0)

    sharded = run_once(
        benchmark,
        lambda: sparsify(
            graph, method="proposed", edge_fraction=SMOKE_FRACTION,
            rounds=SMOKE_ROUNDS, shards=4,
        ),
    )
    monolithic = sparsify(
        graph, method="proposed", edge_fraction=SMOKE_FRACTION,
        rounds=SMOKE_ROUNDS,
    )
    # The repeat forks the shard pool; a silent serial fallback warns,
    # and the warning fails the gate.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        repeat = sparsify(
            graph, method="proposed", edge_fraction=SMOKE_FRACTION,
            rounds=SMOKE_ROUNDS, shards=4, workers=2,
        )

    # Functional gate: fixed shards are bit-deterministic for every
    # worker count, the stitch preserves connectivity, and "keep"
    # retains the whole cut.
    np.testing.assert_array_equal(sharded.edge_mask, repeat.edge_mask)
    assert is_connected(sharded.sparsifier)
    cut = sharded.sharding["cut"]
    assert cut["kept_edges"] == cut["edges"]

    table = Table(["pipeline", "Ts", "edges", "cut_edges"])
    table.add_row([
        "monolithic", monolithic.setup_seconds, monolithic.edge_count, "-",
    ])
    table.add_row([
        "4 shards", sharded.setup_seconds, sharded.edge_count,
        cut["edges"],
    ])
    shard_seconds = ", ".join(
        f"{entry['sparsify_seconds']:.2f}"
        for entry in sharded.sharding["per_shard"]
    )
    emit(
        "sharding_smoke",
        table.render()
        + f"\nper-shard seconds: {shard_seconds}; partition "
        f"{sharded.sharding['partition_seconds']:.2f}s",
    )
