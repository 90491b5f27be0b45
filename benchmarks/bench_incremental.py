#!/usr/bin/env python
"""Replay an edge stream against the incremental sparsifier.

The ``make incremental-smoke`` gate and the generator of
``BENCH_incremental.json``: for each benchmark case this harness

1. builds the graph and opens an
   :class:`~repro.incremental.EvolvingSparsifier` on it,
2. replays a deterministic stream of edge-mutation batches (random
   new edges in, a fraction of the previously inserted edges back
   out — connectivity is never at risk, so every drift decision is
   the monitor's own),
3. times every batch twice: the delta path
   (:meth:`~repro.incremental.EvolvingSparsifier.apply_batch`) against
   a from-scratch :func:`repro.sparsify` on the same mutated graph,
4. measures quality both ways — ``kappa(L_G, L_P)`` of the
   incrementally maintained sparsifier vs the from-scratch one on the
   final mutated graph,

and emits one record per case with per-batch latency percentiles, the
p50 of the batches that stayed on the delta path apart from those the
drift monitor sent to a rebuild, the delta-vs-rebuild speedup, the
rebuild count the drift monitor charged, and the kappa ratio.

``--smoke`` shrinks the stream to CI size, enforces a hard wall-clock
budget (default 60 s), and fails the run unless the delta path beats
the per-batch full rebuild, a from-scratch run's p50 is at least
``SMOKE_P50_RATIO`` times the p50 of the batches that did not rebuild
(both timed in the same process, so the ratio survives the host's
speed drift), and the incremental kappa stays within the drift budget
of the from-scratch kappa.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro.core.metrics import evaluate_sparsifier  # noqa: E402
from repro.graph import make_case  # noqa: E402
from repro.incremental import EvolvingSparsifier  # noqa: E402

#: (case, scale, batches, inserts per batch, deletes per batch)
FULL_MATRIX = (
    ("ecology2", 0.10, 12, 6, 3),
    ("ecology2", 0.25, 8, 8, 4),
    ("ecology2", 1.00, 16, 4, 2),
)
SMOKE_MATRIX = (
    ("ecology2", 0.05, 6, 4, 2),
)
#: Smoke gate: from-scratch p50 over the p50 of the batches that did
#: not rebuild, at the smoke size (n=484).  The array delta path
#: measured 47-72x there on a 2-core x86 host, the dict-and-set path
#: it replaced 13-14x.
SMOKE_P50_RATIO = 28.0


def _percentile(values: list, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      round(q / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


def _p50(values: list):
    """Median of *values*, or None when there are none."""
    return _percentile(values, 50) if values else None


def _stream(graph, rng, *, batches: int, inserts: int, deletes: int):
    """Yield ``(inserts, deletes)`` batches for a deterministic stream.

    Inserted edges close random 2-hop wedges (the locality real edge
    streams exhibit — a long-range random edge on a near-planar case
    is a worst case that mostly measures the rebuild path) weighted at
    the graph's median edge weight; deletions recycle earlier
    insertions, so the evolving graph stays connected by construction.
    """
    present = {(min(int(u), int(v)), max(int(u), int(v)))
               for u, v in zip(graph.u, graph.v)}
    weight = float(np.median(graph.w))
    pool: list = []
    for _ in range(batches):
        batch_in = []
        while len(batch_in) < inserts:
            u = int(rng.integers(0, graph.n))
            hop = graph.neighbors(int(rng.choice(graph.neighbors(u))))
            v = int(rng.choice(hop))
            if u == v:
                continue
            key = (min(u, v), max(u, v))
            if key in present:
                continue
            present.add(key)
            batch_in.append((key[0], key[1], weight))
        batch_out = []
        for _ in range(min(deletes, len(pool))):
            u, v, _ = pool.pop(int(rng.integers(0, len(pool))))
            present.discard((u, v))
            batch_out.append((u, v))
        pool.extend(batch_in)
        yield batch_in, batch_out


def replay(case: str, scale: float, *, batches: int, inserts: int,
           deletes: int, method: str = "proposed", seed: int = 0,
           drift_budget: float = 64.0, **options) -> dict:
    """Replay one edge stream; return the benchmark record dict."""
    graph, spec = make_case(case, scale=scale, seed=seed)
    evolving = EvolvingSparsifier(graph, method, label=spec.name,
                                  drift_budget=drift_budget,
                                  **options)
    rng = np.random.default_rng(seed)
    delta_seconds: list = []
    rebuild_seconds: list = []
    per_batch: list = []
    scratch = None
    for batch_in, batch_out in _stream(graph, rng, batches=batches,
                                       inserts=inserts,
                                       deletes=deletes):
        start = time.perf_counter()
        entry = evolving.apply_batch(inserts=batch_in,
                                     deletes=batch_out)
        delta = time.perf_counter() - start
        start = time.perf_counter()
        scratch = repro.sparsify(evolving.graph, method, **options)
        rebuild = time.perf_counter() - start
        delta_seconds.append(delta)
        rebuild_seconds.append(rebuild)
        per_batch.append({
            "batch": entry["batch"],
            "inserted": entry["inserted"],
            "deleted": entry["deleted"],
            "touched_nodes": entry["touched_nodes"],
            "reranked_edges": entry["reranked_edges"],
            "rebuild": entry["rebuild"],
            "drift_estimate": entry["drift_estimate"],
            "delta_seconds": delta,
            "full_rebuild_seconds": rebuild,
        })
    rebuilt = [entry["rebuild"] for entry in per_batch]
    stayed = [t for t, r in zip(delta_seconds, rebuilt) if not r]
    kappa_delta = evaluate_sparsifier(
        evolving.graph, evolving.sparsifier, seed=seed
    ).kappa
    kappa_scratch = evaluate_sparsifier(
        evolving.graph, scratch.sparsifier, seed=seed
    ).kappa
    return {
        "case": case,
        "scale": scale,
        "nodes": graph.n,
        "edges": graph.edge_count,
        "method": method,
        "options": dict(options),
        "batches": batches,
        "rebuilds": evolving.record.rebuilds,
        "drift_budget": evolving.drift_budget,
        "delta_seconds": {
            "total": sum(delta_seconds),
            "mean": sum(delta_seconds) / len(delta_seconds),
            "p50": _percentile(delta_seconds, 50),
            "p99": _percentile(delta_seconds, 99),
        },
        "delta_p50_seconds": {
            "non_rebuild": _p50(stayed),
            "rebuild": _p50([t for t, r in zip(delta_seconds, rebuilt)
                             if r]),
        },
        "non_rebuild_batches": len(stayed),
        "full_rebuild_seconds": {
            "total": sum(rebuild_seconds),
            "mean": sum(rebuild_seconds) / len(rebuild_seconds),
            "p50": _percentile(rebuild_seconds, 50),
            "p99": _percentile(rebuild_seconds, 99),
        },
        "speedup": sum(rebuild_seconds) / max(sum(delta_seconds),
                                              1e-12),
        "p50_ratio": (_percentile(rebuild_seconds, 50) / _p50(stayed)
                      if stayed else None),
        "kappa": {
            "incremental": kappa_delta,
            "from_scratch": kappa_scratch,
            "ratio": kappa_delta / max(kappa_scratch, 1e-12),
        },
        "per_batch": per_batch,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-size stream with hard assertions")
    parser.add_argument("--budget", type=float, default=None,
                        help="wall-clock budget in seconds "
                        "(default: 60 with --smoke, 900 otherwise)")
    parser.add_argument("--output",
                        default=str(REPO_ROOT /
                                    "BENCH_incremental.json"))
    parser.add_argument("--fraction", type=float, default=0.15,
                        help="edge_fraction passed to the method")
    parser.add_argument("--drift-budget", type=float, default=64.0,
                        help="condition-number inflation budget "
                        "before the monitor forces a rebuild")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    budget = args.budget if args.budget is not None else (
        60.0 if args.smoke else 900.0)
    matrix = SMOKE_MATRIX if args.smoke else FULL_MATRIX
    started = time.time()
    records = []
    for case, scale, batches, inserts, deletes in matrix:
        record = replay(case, scale, batches=batches, inserts=inserts,
                        deletes=deletes, seed=args.seed,
                        drift_budget=args.drift_budget,
                        edge_fraction=args.fraction)
        records.append(record)
        stayed = record["delta_p50_seconds"]["non_rebuild"]
        print(f"{case} x{scale}: {record['nodes']} nodes, "
              f"{batches} batches, {record['rebuilds']} rebuild(s), "
              f"delta mean {record['delta_seconds']['mean']*1e3:.1f} ms "
              f"vs rebuild {record['full_rebuild_seconds']['mean']*1e3:.1f} ms "
              f"({record['speedup']:.1f}x), "
              + (f"non-rebuild p50 {stayed*1e3:.2f} ms "
                 f"({record['p50_ratio']:.1f}x below the rebuild p50), "
                 if stayed is not None else "")
              + f"kappa ratio {record['kappa']['ratio']:.3f}")
    elapsed = time.time() - started
    payload = {
        "generated_by": "benchmarks/bench_incremental.py",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "smoke": bool(args.smoke),
        "elapsed_seconds": elapsed,
        "records": records,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2,
                                            sort_keys=True) + "\n")
    print(f"wrote {args.output} in {elapsed:.1f}s")
    if elapsed > budget:
        print(f"FAIL: exceeded {budget:.0f}s budget", file=sys.stderr)
        return 1
    if args.smoke:
        for record in records:
            if record["speedup"] <= 1.0:
                print(f"FAIL: delta path no faster than full rebuild "
                      f"on {record['case']} "
                      f"(speedup {record['speedup']:.2f}x)",
                      file=sys.stderr)
                return 1
            ratio = record["p50_ratio"]
            if ratio is None or ratio < SMOKE_P50_RATIO:
                print(f"FAIL: a from-scratch run's p50 is "
                      f"{ratio or 0.0:.1f}x the non-rebuild delta p50 "
                      f"on {record['case']}, below the "
                      f"{SMOKE_P50_RATIO:.0f}x gate", file=sys.stderr)
                return 1
            if record["kappa"]["ratio"] > record["drift_budget"]:
                print(f"FAIL: incremental kappa drifted "
                      f"{record['kappa']['ratio']:.2f}x past the "
                      f"from-scratch run (budget "
                      f"{record['drift_budget']:.0f})",
                      file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
