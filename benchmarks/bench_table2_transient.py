"""Table 2 — power-grid transient simulation.

Regenerates the paper's Table 2: for each PG case, transient analysis
over 5 ns with

* the direct solver at a fixed 10 ps step (breakpoint-limited),
* PCG with a GRASS-sparsifier preconditioner, variable steps <= 200 ps,
* PCG with the proposed-sparsifier preconditioner, same stepping,

reporting ``T_tr``, average PCG iterations ``N_a``, memory, and the two
speedups: Sp1 = direct/proposed, Sp2 = GRASS/proposed.

Paper reference: Sp1 avg 3.4x, Sp2 avg 1.4x, iterative memory ~4x
smaller.  Shape to check: the iterative solver needs far fewer steps
and less memory; the proposed preconditioner needs fewer PCG
iterations than GRASS's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.powergrid import (
    build_sparsifier_preconditioner,
    make_pg_case,
    simulate_transient_direct,
    simulate_transient_pcg,
)
from repro.utils.reporting import Table, format_bytes, format_count

from conftest import emit, run_once

CASES = ["ibmpg3t", "ibmpg4t", "ibmpg5t", "ibmpg6t", "thupg1t", "thupg2t"]
T_END = 5e-9
DIRECT_STEP = 10e-12
MAX_STEP = 200e-12
PCG_RTOL = 1e-6
EDGE_FRACTION = 0.10

_netlists: dict = {}
_rows: dict = {}


def _netlist(name, scale):
    if name not in _netlists:
        _netlists[name] = make_pg_case(name, scale=scale, seed=0)
    return _netlists[name]


@pytest.fixture(scope="module", autouse=True)
def report():
    yield
    if not _rows:
        return
    table = Table(
        ["Case", "|V|", "Ttr_D", "Mem_D", "Ts_G", "Ttr_G", "Na_G",
         "Ts_P", "Ttr_P", "Na_P", "Mem_P", "Sp1", "Sp2"]
    )
    sp1_all, sp2_all = [], []
    for name in CASES:
        if name not in _rows or "proposed" not in _rows[name]:
            continue
        row = _rows[name]
        direct, grass, prop = row["direct"], row["grass"], row["proposed"]
        sp1 = direct["Ttr"] / prop["Ttr"]
        sp2 = grass["Ttr"] / prop["Ttr"]
        sp1_all.append(sp1)
        sp2_all.append(sp2)
        table.add_row(
            [name, format_count(row["n"]),
             direct["Ttr"], format_bytes(direct["mem"]),
             grass["Ts"], grass["Ttr"], f"{grass['Na']:.1f}",
             prop["Ts"], prop["Ttr"], f"{prop['Na']:.1f}",
             format_bytes(prop["mem"]), f"{sp1:.1f}", f"{sp2:.1f}"]
        )
    table.add_row(
        ["Average", "-", "-", "-", "-", "-", "-", "-", "-", "-", "-",
         f"{np.mean(sp1_all):.1f}", f"{np.mean(sp2_all):.1f}"]
    )
    emit("table2_transient", table.render())


@pytest.mark.parametrize("name", CASES)
def test_direct_transient(benchmark, name, scale):
    netlist, _ = _netlist(name, scale)
    result = run_once(
        benchmark,
        lambda: simulate_transient_direct(
            netlist, t_end=T_END, step=DIRECT_STEP
        ),
    )
    _rows.setdefault(name, {"n": netlist.n})["direct"] = {
        "Ttr": result.transient_seconds,
        "mem": result.memory_bytes,
        "steps": result.steps,
    }


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("method", ["grass", "proposed"])
def test_iterative_transient(benchmark, name, method, scale):
    netlist, _ = _netlist(name, scale)
    factor, sparsify_seconds, _ = build_sparsifier_preconditioner(
        netlist, method=method, edge_fraction=EDGE_FRACTION, seed=1
    )
    result = run_once(
        benchmark,
        lambda: simulate_transient_pcg(
            netlist, factor, t_end=T_END, max_step=MAX_STEP, rtol=PCG_RTOL
        ),
    )
    assert result.extra["unconverged_steps"] == 0, (
        f"{result.extra['unconverged_steps']} PCG solves missed rtol")
    row = _rows.setdefault(name, {"n": netlist.n})
    row[method] = {
        "Ts": sparsify_seconds,
        "Ttr": result.transient_seconds,
        "Na": result.avg_iterations,
        "mem": result.memory_bytes,
        "steps": result.steps,
    }
    if method == "proposed" and "direct" in row:
        # Shape: variable stepping needs far fewer steps, less memory.
        assert row[method]["steps"] < row["direct"]["steps"]
        assert row[method]["mem"] <= row["direct"]["mem"]
    if method == "proposed" and "grass" in row:
        # Shape: proposed preconditioner converges in fewer iterations.
        assert row[method]["Na"] <= row["grass"]["Na"] * 1.15
