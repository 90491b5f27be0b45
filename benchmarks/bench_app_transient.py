#!/usr/bin/env python
"""Application benchmark: transient power-grid simulation per family.

The sparsifier as a *component*: every workload family from the
generator registry is dressed as a power-delivery network
(:func:`repro.powergrid.netlist_from_graph`), then simulated over the
same time window twice —

1. the dense reference: fixed-step backward Euler with a factor-once
   direct solver (``simulate_transient_direct``), and
2. the sparsifier path: variable-step backward Euler with PCG, where
   **one** sparsifier factorization built at DC is reused as the
   preconditioner across every time step
   (``build_sparsifier_preconditioner`` + ``simulate_transient_pcg``).

One record per (family, scale) lands in the ``"transient"`` section of
``BENCH_apps.json`` via :func:`conftest.emit_records`, carrying the
downstream-quality metrics (kappa, average PCG iterations, max probe
deviation against the dense reference) alongside setup/solve timings
and the sparsifier-vs-dense memory/time deltas — so a future speed PR
is always checked against what the sparsifier is *for*.

``--smoke`` shrinks the sweep to CI size, enforces a wall-clock budget
(default 60 s shared with the clustering smoke) and fails the run when
any PCG solve misses its tolerance or the sparsifier-preconditioned
transient diverges from the dense reference by more than the paper's
16 mV waveform bound.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

from conftest import emit_records  # noqa: E402
from repro.core.metrics import evaluate_sparsifier  # noqa: E402
from repro.graph import make_family_graph  # noqa: E402
from repro.powergrid import (  # noqa: E402
    build_sparsifier_preconditioner,
    netlist_from_graph,
    simulate_transient_direct,
    simulate_transient_pcg,
)
from repro.powergrid.transient import max_probe_difference  # noqa: E402

#: (family, target nodes) pairs — the family x scale sweep.
FULL_MATRIX = (
    ("grid2d", 1600), ("grid2d", 6400),
    ("ba", 1600), ("ba", 6400),
    ("smallworld", 1600), ("smallworld", 6400),
    ("kronecker", 2048), ("kronecker", 8192),
    ("configmodel", 1600), ("configmodel", 6400),
)
SMOKE_MATRIX = (
    ("grid2d", 400),
    ("ba", 400),
    ("smallworld", 400),
    ("kronecker", 512),
    ("configmodel", 400),
)

#: Paper Fig. 1 acceptance bound on the waveform deviation.
DEVIATION_BOUND_V = 16e-3


def run_family(family: str, n: int, *, method: str = "proposed",
               edge_fraction: float = 0.10, t_end: float = 5e-9,
               direct_step: float = 10e-12, rtol: float = 1e-6,
               seed: int = 0) -> dict:
    """One (family, scale) cell; returns the benchmark record dict."""
    graph = make_family_graph(family, n, seed=seed)
    netlist = netlist_from_graph(graph, seed=seed + 1,
                                 name=f"{family}-{graph.n}")
    probe = int(netlist.loads[0].node)

    direct = simulate_transient_direct(
        netlist, t_end=t_end, step=direct_step, probes=[probe]
    )
    factor, sparsify_seconds, result = build_sparsifier_preconditioner(
        netlist, method=method, edge_fraction=edge_fraction, seed=seed + 2
    )
    iterative = simulate_transient_pcg(
        netlist, factor, t_end=t_end, rtol=rtol, probes=[probe]
    )
    quality = evaluate_sparsifier(
        netlist.graph, result.sparsifier, seed=seed + 3
    )
    deviation = max_probe_difference(direct, iterative, probe)
    return {
        "benchmark": "app_transient",
        "family": family,
        "nodes": int(netlist.n),
        "edges": int(netlist.graph.edge_count),
        "method": method,
        "edge_fraction": edge_fraction,
        "t_end": t_end,
        "quality": {
            "kappa": float(quality.kappa),
            "avg_pcg_iterations": float(iterative.avg_iterations),
            "max_probe_deviation_v": float(deviation),
            "deviation_bound_v": DEVIATION_BOUND_V,
            "sparsifier_edges": int(quality.sparsifier_edges),
            "edge_ratio": float(
                quality.sparsifier_edges / max(netlist.graph.edge_count, 1)
            ),
        },
        "direct": {
            "steps": int(direct.steps),
            "setup_seconds": direct.setup_seconds,
            "transient_seconds": direct.transient_seconds,
            "memory_bytes": int(direct.memory_bytes),
        },
        "sparsifier_pcg": {
            "steps": int(iterative.steps),
            "sparsify_seconds": sparsify_seconds,
            "setup_seconds": iterative.setup_seconds,
            "transient_seconds": iterative.transient_seconds,
            "memory_bytes": int(iterative.memory_bytes),
            "unconverged_steps": int(
                iterative.extra["unconverged_steps"]),
        },
        "vs_dense": {
            "transient_speedup": direct.transient_seconds
            / max(iterative.transient_seconds, 1e-12),
            "memory_ratio": iterative.memory_bytes
            / max(direct.memory_bytes, 1),
            "step_ratio": direct.steps / max(iterative.steps, 1),
        },
    }


def main(argv=None) -> int:
    """Run the family sweep; write the ``transient`` BENCH_apps section."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-size sweep with hard assertions")
    parser.add_argument("--budget", type=float, default=None,
                        help="wall-clock budget in seconds "
                        "(default: 45 with --smoke, 900 otherwise)")
    parser.add_argument("--method", default="proposed",
                        help="registered sparsifier method")
    parser.add_argument("--fraction", type=float, default=0.10,
                        help="edge_fraction passed to the method")
    parser.add_argument("--t-end", type=float, default=None,
                        help="simulated window (default: 1 ns with "
                        "--smoke, 5 ns otherwise)")
    parser.add_argument("--output", default=None,
                        help="destination JSON (default: "
                        "<repo>/BENCH_apps.json)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    budget = args.budget if args.budget is not None else (
        45.0 if args.smoke else 900.0)
    t_end = args.t_end if args.t_end is not None else (
        1e-9 if args.smoke else 5e-9)
    matrix = SMOKE_MATRIX if args.smoke else FULL_MATRIX
    started = time.time()
    records = []
    for family, n in matrix:
        record = run_family(family, n, method=args.method,
                            edge_fraction=args.fraction, t_end=t_end,
                            seed=args.seed)
        records.append(record)
        q = record["quality"]
        print(f"{family:12s} n={record['nodes']:6d}: "
              f"kappa {q['kappa']:8.1f}, "
              f"avg PCG iters {q['avg_pcg_iterations']:5.1f}, "
              f"deviation {q['max_probe_deviation_v'] * 1e3:6.2f} mV, "
              f"Ttr {record['sparsifier_pcg']['transient_seconds']:.2f}s "
              f"vs direct {record['direct']['transient_seconds']:.2f}s")
    elapsed = time.time() - started
    emit_records("BENCH_apps", records, section="transient",
                 output=args.output)
    print(f"app-transient sweep: {len(records)} records in {elapsed:.1f}s")
    if elapsed > budget:
        print(f"FAIL: exceeded {budget:.0f}s budget", file=sys.stderr)
        return 1
    if args.smoke:
        for record in records:
            unconverged = record["sparsifier_pcg"]["unconverged_steps"]
            if unconverged:
                print(f"FAIL: {record['family']} sparsifier-PCG left "
                      f"{unconverged} solves short of rtol",
                      file=sys.stderr)
                return 1
            deviation = record["quality"]["max_probe_deviation_v"]
            if not np.isfinite(deviation) or deviation > DEVIATION_BOUND_V:
                print(f"FAIL: {record['family']} sparsifier-PCG waveform "
                      f"diverged {deviation * 1e3:.2f} mV from the dense "
                      f"reference (bound "
                      f"{DEVIATION_BOUND_V * 1e3:.0f} mV)",
                      file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
