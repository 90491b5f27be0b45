#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload mesh-16k --seed 1 --seconds 35
                             --trace 0

``--trace 0`` sets up the workload's inputs from the seed (several
times; the median is ``setup_s``), then runs timed iterations until
``--seconds`` would be exceeded (at least one) and reports the
end-to-end metrics as medians over them.  ``--trace 1`` runs an
untraced, a traced and another untraced iteration and reports the
per-layer metrics; the spans go to ``.perfbench/``.  Every output is
checked; the last line of standard output is the JSON result.  See
``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

# Single-threaded: pin the BLAS/OpenMP pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
BASELINE_REPEATS = 3
PHASE_SUM_TOLERANCE = 0.05

END_TO_END_UNITS = {
    "wall_ref": "ref", "sparsify_ref": "ref", "update_p50_ref": "ref",
    "kappa": "ratio", "pcg_iters": "count", "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "ranking.tree_phase_s": "s", "ranking.approx_s": "s",
    "ranking.balls_s": "s", "ranking.ball_hit_ratio": "ratio",
    "ranking.candidates": "count", "ranking.pick_ratio": "ratio",
    "linalg.factorize_s": "s", "linalg.factor_nnz": "count",
    "linalg.spai_s": "s", "linalg.spai_nnz": "count",
    "linalg.cholesky_s": "s", "linalg.trisolve_s": "s",
    "linalg.pcg_s": "s", "linalg.pcg_calls": "count",
    "linalg.kappa_s": "s",
    "similarity.mark_s": "s", "similarity.marked": "count",
    "graph.subgraph_s": "s", "graph.laplacian_s": "s", "graph.bfs_s": "s",
    "tree.extract_s": "s", "tree.forest_s": "s",
    "api.other_s": "s", "trace.overhead_s": "s",
    "trace.phase_sum_ratio": "ratio", "baseline.grass_s": "s",
}


def _source_digest() -> str:
    """Digest of the program and benchmark sources (the ledger key)."""
    digest = hashlib.sha256()
    bench = Path(__file__).resolve().parent
    for path in sorted([*(ROOT / "src").rglob("*.py"), *bench.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _environment(cache_dir: Path) -> dict:
    import numpy
    import scipy
    from repro.core.sparsifier import SparsifierConfig

    config = SparsifierConfig()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": config.resolve_backend().name,
        "kernels": config.resolve_kernels().name,
        "blas": blas.get("name"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "cache_dir": str(cache_dir.relative_to(ROOT)),
    }


def _set_up(workload, seed: int, times: list):
    """Build the inputs and warm up; append the seconds to *times*."""
    start = perf_counter()
    inputs = workload.setup(seed)
    workload.warm_up()
    times.append(perf_counter() - start)
    return inputs


def _iterate(workload, inputs, tracer=None):
    """One iteration, with the host-speed reference timed around it."""
    from workloads import Phases, reference_seconds

    before = reference_seconds()
    outcome = workload.iterate(inputs, Phases(tracer))
    outcome.extra["reference_s"] = (before + reference_seconds()) / 2
    return outcome


def _seconds(outcomes) -> dict:
    """The timed calls in seconds, as a user sees them (medians)."""
    median = statistics.median
    return {
        "wall_s": median(o.wall_s for o in outcomes),
        "sparsify_s": median(o.phases.seconds["sparsify"] for o in outcomes),
        "update_p50_s": median(t for o in outcomes for t in o.updates),
    }


def _check_determinism(workload, seed: int, outcomes) -> list:
    """Problems if iterations, or earlier runs at this seed, disagree."""
    observed = {(o.digest, o.kappa, o.pcg_iters) for o in outcomes}
    problems = []
    if len(observed) > 1:
        problems.append(f"iterations disagree: {sorted(observed)}")
    digest, kappa, pcg_iters = outcomes[0].digest, outcomes[0].kappa, \
        outcomes[0].pcg_iters
    ledger_path = WORK_DIR / "determinism.json"
    ledger = (json.loads(ledger_path.read_text())
              if ledger_path.exists() else {})
    key = f"{workload.name}/seed={seed}/src={_source_digest()}"
    mine = {"digest": digest, "kappa": kappa, "pcg_iters": pcg_iters}
    if key in ledger and ledger[key] != mine:
        problems.append(f"differs from an earlier run: {ledger[key]} "
                        f"!= {mine}")
    elif key not in ledger:
        ledger[key] = mine
        scratch = ledger_path.with_suffix(".tmp")
        scratch.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        os.replace(scratch, ledger_path)
    return problems


def _end_to_end(outcomes, setup_s: float) -> dict:
    """The declared metrics; times in units of the reference kernel."""
    median = statistics.median
    return {
        "wall_ref": median(o.wall_s / o.extra["reference_s"]
                           for o in outcomes),
        "sparsify_ref": median(o.phases.seconds["sparsify"]
                               / o.extra["reference_s"] for o in outcomes),
        "update_p50_ref": median(t / o.extra["reference_s"]
                                 for o in outcomes for t in o.updates),
        "kappa": median(o.kappa for o in outcomes),
        "pcg_iters": median(o.pcg_iters for o in outcomes),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def _per_layer(workload, inputs, untraced, tracer, traced) -> dict:
    """Per-layer metrics from the traced iteration's spans and counts."""
    import repro

    table = tracer.analyse()
    total: dict = {}
    for buckets in table.values():
        for bucket, seconds in buckets.items():
            total[bucket] = total.get(bucket, 0.0) + seconds
    counts = tracer.counts
    graph = workload.baseline_graph(inputs)
    grass = []
    for _ in range(BASELINE_REPEATS):
        start = perf_counter()
        repro.sparsify(graph, "grass", edge_fraction=0.10)
        grass.append(perf_counter() - start)
    metrics = {name: total.get(name, 0.0) for name in PER_LAYER_UNITS
               if name.endswith("_s")}
    metrics.update({
        "ranking.ball_hit_ratio": 1.0 - counts.get("ranking.balls_built", 0)
        / max(counts.get("ranking.balls_requested", 0), 1),
        "ranking.candidates": counts.get("ranking.candidates", 0),
        "ranking.pick_ratio": counts.get("ranking.added", 0)
        / max(counts.get("ranking.candidates", 0), 1),
        "linalg.factor_nnz": counts.get("linalg.factor_nnz", 0),
        "linalg.spai_nnz": counts.get("linalg.spai_nnz", 0),
        "linalg.pcg_calls": counts.get("linalg.pcg_calls", 0),
        "similarity.marked": counts.get("similarity.marked", 0),
        "api.other_s": table.get("sparsify", {}).get("api.other_s", 0.0),
        "trace.overhead_s": traced.wall_s - untraced.wall_s,
        "trace.phase_sum_ratio": sum(table.get("sparsify", {}).values())
        / traced.phases.seconds["sparsify"],
        "baseline.grass_s": statistics.median(grass),
    })
    return metrics, table


def _workload_layers(traced, tracer, table) -> dict:
    """Layers only some workloads exercise: printed, not in the result."""
    counts = tracer.counts
    extra = {}
    if "rebuilt" in traced.extra:
        rebuilt = traced.extra["rebuilt"]
        extra.update({
            "incremental.delta_s": sum(
                t for t, r in zip(traced.updates, rebuilt) if not r),
            "incremental.rebuild_s": sum(
                t for t, r in zip(traced.updates, rebuilt) if r),
            "incremental.rebuilds": counts.get("incremental.rebuilds", 0),
            "incremental.reranked_edges": counts.get(
                "incremental.reranked_edges", 0),
        })
    if "deviation_mv" in traced.extra:
        extra.update({
            "powergrid.steps": counts.get("powergrid.steps", 0),
            "powergrid.deviation_mv": traced.extra["deviation_mv"],
        })
    for buckets in table.values():
        for bucket, seconds in buckets.items():
            if bucket.split(".")[0] in ("incremental", "powergrid"):
                extra[bucket] = extra.get(bucket, 0.0) + seconds
    return extra


def _print_table(title: str, values: dict, units: dict) -> None:
    print(f"# {title}")
    for name, value in values.items():
        print(f"{name:32s} {value:16.6g} {units.get(name, '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    cache_dir = WORK_DIR / f"cache-{os.getpid()}"
    cache_dir.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    try:
        return _run(args, cache_dir)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def _run(args, cache_dir: Path) -> int:
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print("# environment " + json.dumps(_environment(cache_dir),
                                        sort_keys=True))
    # Set-ups are spread over the run (one before each iteration, the
    # rest after the last), so their median does not hinge on the
    # host's speed during the first seconds.
    setup_times: list = []
    inputs = _set_up(workload, args.seed, setup_times)
    outcomes = []
    started = perf_counter()
    while True:
        outcomes.append(_iterate(workload, inputs))
        elapsed = perf_counter() - started
        if args.trace or elapsed * (1 + 1 / len(outcomes)) > args.seconds:
            break
        if len(setup_times) < SETUP_REPEATS:
            inputs = _set_up(workload, args.seed, setup_times)

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = _iterate(workload, inputs, tracer)
        finally:
            tracer.uninstall()
        # The first iteration of a process runs cold; compare the traced
        # one against a warm untraced iteration.
        warm = _iterate(workload, inputs)
        outcomes += [traced, warm]

    # One operation per check, plus the determinism check of the run.
    attempted = sum(o.attempted for o in outcomes) + 1
    failures = [f for o in outcomes for f in o.failures]
    failures += [f"determinism: {p}" for p in
                 _check_determinism(workload, args.seed, outcomes)]

    if args.trace:
        metrics, table = _per_layer(workload, inputs, warm, tracer, traced)
        attempted += 1
        if abs(metrics["trace.phase_sum_ratio"] - 1) > PHASE_SUM_TOLERANCE:
            failures.append(
                f"phase sum: traced phases cover "
                f"{metrics['trace.phase_sum_ratio']:.3f} of sparsify_s")
        extra = _workload_layers(traced, tracer, table)
        units = PER_LAYER_UNITS
        WORK_DIR.mkdir(exist_ok=True)
        tracer.dump(str(WORK_DIR / f"trace-{workload.name}-{args.seed}"),
                    {"workload": workload.name, "seed": args.seed,
                     "metrics": metrics, "workload_layers": extra,
                     "by_root": table})
        _print_table("per-layer self time by root", {
            f"{kind}/{bucket}": seconds
            for kind, buckets in table.items()
            for bucket, seconds in sorted(buckets.items())}, {})
        _print_table(f"{workload.name}-only layers", extra, {})
    else:
        while len(setup_times) < SETUP_REPEATS:
            _set_up(workload, args.seed, setup_times)
        metrics = _end_to_end(outcomes, statistics.median(setup_times))
        units = END_TO_END_UNITS
        print(f"# {len(outcomes)} iterations, setup median of "
              f"{SETUP_REPEATS}, fail_frac "
              f"{len(failures) / attempted:.4g}, digest "
              f"{outcomes[0].digest}")
        if "rebuilt" in outcomes[0].extra:
            rebuilt = outcomes[0].extra["rebuilt"]
            print(f"# {sum(rebuilt)} drift rebuilds in {len(rebuilt)} "
                  "batches")
        if "deviation_mv" in outcomes[0].extra:
            print(f"# probe deviation "
                  f"{outcomes[0].extra['deviation_mv']:.3f} mV")
        _print_table("seconds", _seconds(outcomes), {})
        print("# iteration reference_s " + " ".join(
            f"{o.extra['reference_s']:.5f}" for o in outcomes))
        for kind in ("wall", "sparsify", "evaluate", "solve"):
            print(f"# iteration {kind}_s " + " ".join(
                f"{o.wall_s if kind == 'wall' else o.phases.seconds[kind]:.3f}"
                for o in outcomes))
    _print_table(f"{workload.name} seed {args.seed}", metrics, units)
    for failure in failures:
        print(f"# FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
