"""Command-line interface: run the paper's experiments from a shell.

The interface is generated from the sparsifier method registry
(:mod:`repro.api`): every option of every registered config dataclass
becomes a flag, and passing a flag the chosen method does not accept is
a hard error (never a silent no-op).

Examples
--------
List the available cases and methods::

    repro cases
    repro methods

(``repro`` is the installed console script; ``python -m repro.cli``
works from a plain checkout.)

Sparsify a named case (or a Matrix Market file) and report quality::

    repro sparsify --case ecology2 --fraction 0.10
    repro sparsify --mtx my_matrix.mtx --method grass --rounds 3
    repro sparsify --case ecology2 --json   # machine-readable RunRecord

Sweep methods and fractions over one graph through a
:class:`~repro.api.SparsifierSession` (shared artifacts are derived
once)::

    repro sweep --case ecology2 --methods proposed,grass \
        --fractions 0.05,0.10 --output sweep.json

Large graphs can be cut into shards that are sparsified independently
(and concurrently, when ``--workers`` asks for it; ``--workers 0``
means one per CPU) and stitched back together with the cut edges; the
result is bit-identical for every worker count — see
``docs/scaling.md``::

    repro sparsify --case ecology2 --shards 4 --workers 4
    repro sparsify --case ecology2 --shards 4 --boundary-policy sample

Power-grid transient comparison (Table 2) and spectral partitioning
comparison (Table 3), both accepting any registered ``--method``::

    repro transient --case ibmpg3t --scale 0.25
    repro partition --case tmt_sym --scale 0.25 --json

Long-lived serving (:mod:`repro.service`): run the sparsification
daemon, submit jobs to it, and inspect the queue — identical in-flight
requests are deduplicated and all jobs share one warm artifact cache::

    repro serve --port 8734 --workers 2
    repro submit --url http://127.0.0.1:8734 --case ecology2 --rounds 2
    repro jobs --url http://127.0.0.1:8734 --status done --limit 10

Evolving-graph sessions (:mod:`repro.incremental` behind the daemon):
open a session, stream edge-mutation batches into it, and download the
incrementally maintained sparsifier at any point::

    repro graphs --create --case ecology2 --scale 0.05 --fraction 0.15
    repro patch --graph graph-000001 --insert 0,37,1.0 --delete 0,1
    repro graphs                       # table of live sessions
    repro graphs --show graph-000001   # RunRecord + DeltaRecord JSON
    repro graphs --delete graph-000001

Operate the shared on-disk artifact cache the daemon (and ``repro
sweep``) warms::

    repro cache stats
    repro cache gc --max-age-days 30
    repro cache clear --cache-dir /tmp/repro-cache
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.api import RunRecord, SparsifierSession, get_method, list_methods
from repro.api import sparsify as api_sparsify
from repro.api.docgen import flag_for as _flag_for
from repro.exceptions import CacheError, ReproError, ServiceError
from repro.graph import CASE_REGISTRY, make_case, read_graph_mtx
from repro.partitioning import (
    build_partition_preconditioner,
    fiedler_vector,
    partition_relative_error,
    spectral_bipartition,
)
from repro.powergrid import (
    PG_CASE_REGISTRY,
    build_sparsifier_preconditioner,
    make_pg_case,
    simulate_transient_direct,
    simulate_transient_pcg,
)
from repro.powergrid.transient import max_probe_difference
from repro.utils.reporting import Table, format_bytes, format_seconds

# Sentinel distinguishing "flag not given" from any real value, so only
# user-provided options reach the method config (and inapplicable ones
# can be rejected instead of silently ignored).
_UNSET = object()

def _method_option_table() -> dict:
    """Merge the option specs of every registered method.

    Returns ``{option_name: (OptionSpec, [method, ...])}`` — the single
    source of truth the ``sparsify`` / ``sweep`` / ``transient`` /
    ``partition`` flags are generated from.
    """
    merged: dict = {}
    for name in list_methods():
        for opt_name, opt in get_method(name).options().items():
            entry = merged.setdefault(opt_name, (opt, []))
            entry[1].append(name)
    return merged


def _add_method_flags(parser, skip=()) -> None:
    """Generate one flag per registered config field."""
    group = parser.add_argument_group(
        "method options",
        "generated from the registered config dataclasses; flags the "
        "chosen --method does not accept are rejected",
    )
    for opt_name, (opt, methods) in sorted(_method_option_table().items()):
        if opt_name in skip:
            continue
        help_text = f"[{', '.join(methods)}] default {opt.default!r}"
        kwargs = dict(default=_UNSET, dest=f"opt_{opt_name}", help=help_text)
        if opt.type is bool:
            group.add_argument(
                _flag_for(opt_name), action=argparse.BooleanOptionalAction,
                **kwargs,
            )
        else:
            group.add_argument(_flag_for(opt_name), type=opt.type, **kwargs)


def _provided_options(args, methods=None) -> dict:
    """Options the user actually passed, keyed by config field name.

    When *methods* is given, every method's config is test-built right
    away so inapplicable flags fail fast — before graphs are loaded or
    direct reference solutions are computed.
    """
    options = {
        name[len("opt_"):]: value
        for name, value in vars(args).items()
        if name.startswith("opt_") and value is not _UNSET
    }
    for method in methods or ():
        get_method(method).make_config(**options)
    return options


def _add_graph_source(parser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--case", choices=sorted(CASE_REGISTRY))
    source.add_argument("--mtx", help="Matrix Market file to load")
    parser.add_argument("--scale", type=float, default=None)


def _load_graph(args, seed: int):
    if args.case:
        graph, spec = make_case(args.case, scale=args.scale, seed=seed)
        return graph, spec.name
    graph, _ = read_graph_mtx(args.mtx)
    return graph, args.mtx


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Graph spectral sparsification (DAC'22 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("cases", help="list registered graph and PG cases")
    methods = sub.add_parser(
        "methods", help="list registered sparsifier methods"
    )
    methods.add_argument(
        "--markdown", action="store_true",
        help="emit the generated API reference (docs/api-reference.md)",
    )

    sparsify = sub.add_parser("sparsify", help="sparsify a graph")
    _add_graph_source(sparsify)
    sparsify.add_argument("--method", choices=sorted(list_methods()),
                          default="proposed")
    sparsify.add_argument("--json", action="store_true",
                          help="emit a RunRecord as JSON instead of a table")
    _add_method_flags(sparsify)

    sweep = sub.add_parser(
        "sweep", help="method x fraction sweep through one session"
    )
    _add_graph_source(sweep)
    sweep.add_argument("--methods", default="proposed",
                       help="comma-separated registry names")
    sweep.add_argument("--fractions", default="0.02,0.05,0.10",
                       help="comma-separated edge fractions")
    sweep.add_argument("--json", action="store_true",
                       help="emit the RunRecords as JSON")
    sweep.add_argument("--output", default=None,
                       help="also write the RunRecords to this JSON file")
    sweep.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=True,
        help="persist session artifacts on disk (REPRO_CACHE_DIR or "
        "~/.cache/repro) so a second run skips setup; --no-cache keeps "
        "the session memory-only",
    )
    sweep.add_argument(
        "--cache-dir", default=None,
        help="explicit cache root (overrides REPRO_CACHE_DIR)",
    )
    _add_method_flags(sweep, skip=("edge_fraction",))

    transient = sub.add_parser("transient", help="PG transient comparison")
    transient.add_argument("--case", choices=sorted(PG_CASE_REGISTRY),
                           default="ibmpg3t")
    transient.add_argument("--scale", type=float, default=None)
    transient.add_argument("--t-end", type=float, default=5e-9)
    transient.add_argument("--method", choices=sorted(list_methods()),
                           default="proposed")
    transient.add_argument("--json", action="store_true")
    _add_method_flags(transient)

    partition = sub.add_parser("partition", help="Fiedler comparison")
    partition.add_argument("--case", choices=sorted(CASE_REGISTRY),
                           default="ecology2")
    partition.add_argument("--scale", type=float, default=None)
    partition.add_argument("--steps", type=int, default=5)
    partition.add_argument("--method", choices=sorted(list_methods()),
                           default="proposed")
    partition.add_argument("--json", action="store_true")
    _add_method_flags(partition)

    serve = sub.add_parser(
        "serve", help="run the sparsification service daemon"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8734,
                       help="listening port (0 picks an ephemeral one)")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker threads/processes (0 = one per CPU)")
    serve.add_argument("--executor", choices=("thread", "process"),
                       default="thread",
                       help="execution backend: run jobs inline on "
                       "worker threads, or in fingerprint-pinned "
                       "worker processes that sidestep the GIL")
    serve.add_argument("--retries", type=int, default=1,
                       help="re-runs granted to a job whose worker "
                       "process crashed mid-job")
    serve.add_argument("--max-sessions", type=int, default=8,
                       help="warm per-graph sessions kept in memory")
    serve.add_argument("--max-jobs", type=int, default=1000,
                       help="finished jobs (and their records) "
                       "retained in the ledger")
    serve.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=True,
        help="share the persistent artifact cache across jobs and "
        "restarts (--no-cache keeps sessions memory-only)",
    )
    serve.add_argument("--cache-dir", default=None,
                       help="explicit cache root (overrides "
                       "REPRO_CACHE_DIR)")
    serve.add_argument("--verbose", action="store_true",
                       help="log one line per HTTP request")

    submit = sub.add_parser(
        "submit", help="submit a job to a running service daemon"
    )
    submit.add_argument("--url", default="http://127.0.0.1:8734")
    source = submit.add_mutually_exclusive_group(required=True)
    source.add_argument("--case", choices=sorted(CASE_REGISTRY))
    source.add_argument("--mtx",
                        help="local Matrix Market file (content is "
                        "uploaded with the request)")
    source.add_argument("--mtx-path",
                        help="server-side Matrix Market path")
    submit.add_argument("--scale", type=float, default=None)
    submit.add_argument("--method", choices=sorted(list_methods()),
                        default="proposed")
    submit.add_argument("--label", default=None)
    submit.add_argument("--priority", type=int, default=0,
                        help="higher runs sooner; ties run in "
                        "submission order")
    submit.add_argument("--evaluate", action="store_true",
                        help="score the sparsifier (kappa, PCG) and "
                        "attach the quality block to the record")
    submit.add_argument(
        "--wait", action=argparse.BooleanOptionalAction, default=True,
        help="poll until the job finishes (--no-wait prints the job "
        "id and returns immediately)",
    )
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="--wait polling budget in seconds")
    submit.add_argument("--json", action="store_true",
                        help="emit the job (and RunRecord) as JSON")
    _add_method_flags(submit)

    jobs = sub.add_parser(
        "jobs", help="list, inspect or cancel jobs on a daemon"
    )
    jobs.add_argument("--url", default="http://127.0.0.1:8734")
    jobs.add_argument("--job", default=None,
                      help="show one job in full instead of the table")
    jobs.add_argument("--cancel", default=None,
                      help="cancel this queued job id")
    from repro.service.jobs import JOB_STATUSES

    jobs.add_argument("--status", choices=JOB_STATUSES, default=None,
                      help="only list jobs in this lifecycle state")
    jobs.add_argument("--limit", type=int, default=None,
                      help="only list the most recent N jobs")
    jobs.add_argument("--json", action="store_true")

    graphs = sub.add_parser(
        "graphs",
        help="manage evolving-graph sessions on a daemon",
    )
    graphs.add_argument("--url", default="http://127.0.0.1:8734")
    graphs.add_argument("--create", action="store_true",
                        help="open a session (pass a graph source)")
    source = graphs.add_mutually_exclusive_group()
    source.add_argument("--case", choices=sorted(CASE_REGISTRY))
    source.add_argument("--mtx",
                        help="local Matrix Market file (content is "
                        "uploaded with the request)")
    source.add_argument("--mtx-path",
                        help="server-side Matrix Market path")
    graphs.add_argument("--scale", type=float, default=None)
    graphs.add_argument("--method", choices=sorted(list_methods()),
                        default="proposed",
                        help="must support incremental updates")
    graphs.add_argument("--label", default=None)
    graphs.add_argument("--drift-budget", type=float, default=32.0,
                        help="estimated condition-number inflation "
                        "that triggers a full rebuild")
    graphs.add_argument("--locality-beta", type=int, default=2,
                        help="hop radius of the re-examined "
                        "neighborhood per batch")
    graphs.add_argument("--show", default=None, metavar="ID",
                        help="fetch one session's sparsifier "
                        "(RunRecord + DeltaRecord JSON)")
    graphs.add_argument("--delete", default=None, metavar="ID",
                        help="close this session")
    graphs.add_argument("--json", action="store_true")
    _add_method_flags(graphs)

    patch = sub.add_parser(
        "patch",
        help="apply an edge-mutation batch to an evolving-graph "
        "session",
    )
    patch.add_argument("--url", default="http://127.0.0.1:8734")
    patch.add_argument("--graph", required=True,
                       help="graph session id (graph-000001)")
    patch.add_argument("--insert", action="append", default=[],
                       metavar="U,V,W",
                       help="insert edge (u, v) with weight w; "
                       "repeatable")
    patch.add_argument("--delete", action="append", default=[],
                       metavar="U,V",
                       help="delete edge (u, v); repeatable")
    patch.add_argument("--json", action="store_true")

    cache = sub.add_parser(
        "cache", help="inspect or prune the on-disk artifact cache"
    )
    cache.add_argument("action", choices=("stats", "gc", "clear"),
                       help="stats: inventory; gc: drop entries older "
                       "than --max-age-days; clear: drop everything")
    cache.add_argument("--cache-dir", default=None,
                       help="cache root (default REPRO_CACHE_DIR or "
                       "~/.cache/repro)")
    cache.add_argument("--max-age-days", type=float, default=None,
                       help="gc age bound (default "
                       "DiskCache.max_age_days = 30)")
    cache.add_argument("--json", action="store_true")
    return parser


def _cmd_cases(_args) -> int:
    table = Table(["name", "kind", "paper |V|", "default |V|", "detail"])
    for spec in CASE_REGISTRY.values():
        table.add_row(
            [spec.name, spec.family, f"{spec.paper_nodes:.1E}",
             spec.base_nodes, spec.detail]
        )
    for spec in PG_CASE_REGISTRY.values():
        table.add_row(
            [spec.name, "powergrid", f"{spec.paper_nodes:.1E}",
             spec.base_nodes, spec.detail]
        )
    print(table.render())
    return 0


def _cmd_methods(args) -> int:
    if getattr(args, "markdown", False):
        from repro.api.docgen import api_reference_markdown

        print(api_reference_markdown(), end="")
        return 0
    table = Table(["method", "options", "description"])
    for name in list_methods():
        spec = get_method(name)
        table.add_row([
            name,
            " ".join(_flag_for(o) for o in spec.option_names()),
            spec.description,
        ])
    print(table.render())
    return 0


def _cmd_sparsify(args) -> int:
    from repro.core import evaluate_sparsifier

    options = _provided_options(args, methods=[args.method])
    seed = int(options.get("seed", 0))
    graph, label = _load_graph(args, seed)
    result = api_sparsify(graph, method=args.method, **options)
    quality = evaluate_sparsifier(graph, result.sparsifier, seed=seed)
    record = RunRecord.from_result(
        result, method=args.method, label=label, quality=quality
    )
    if args.json:
        print(record.to_json())
        return 0
    print(f"{label}: {graph.n} nodes, {graph.edge_count} edges")
    table = Table(["metric", "value"])
    table.add_row(["method", args.method])
    table.add_row(["sparsifier edges", quality.sparsifier_edges])
    table.add_row(["kappa(L_G, L_P)", quality.kappa])
    table.add_row(["PCG iterations (rtol 1e-3)", quality.pcg_iterations])
    table.add_row(["sparsify seconds", format_seconds(result.setup_seconds)])
    table.add_row(["factor nnz", quality.factor_nnz])
    print(table.render())
    if result.sharding is not None:
        info = result.sharding
        cut = info["cut"]
        shard_times = ", ".join(
            format_seconds(entry["sparsify_seconds"])
            for entry in info["per_shard"]
        )
        print(
            f"shards: {info['shards']} "
            f"({', '.join(str(e['nodes']) for e in info['per_shard'])} "
            f"nodes), boundary_policy={info['boundary_policy']}: "
            f"kept {cut['kept_edges']}/{cut['edges']} cut edges"
        )
        print(
            f"per-shard sparsify seconds: {shard_times}; partition "
            f"{format_seconds(info['partition_seconds'])}, stitch "
            f"{format_seconds(info['stitch_seconds'])}"
        )
    return 0


def _cmd_sweep(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    fractions = [float(f) for f in args.fractions.split(",") if f.strip()]
    if not args.cache and args.cache_dir is not None:
        raise CacheError(
            "--no-cache and --cache-dir contradict each other; drop one"
        )
    options = _provided_options(args, methods=methods)
    seed = int(options.get("seed", 0))
    graph, label = _load_graph(args, seed)
    session = SparsifierSession(
        graph, label=label,
        persistent=args.cache,
        cache_dir=args.cache_dir,
    )
    records = session.sweep(methods, fractions, **options)
    payload = [record.to_dict() for record in records]
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"{label}: {graph.n} nodes, {graph.edge_count} edges")
    table = Table(["method", "fraction", "edges", "kappa", "PCG iters",
                   "Ts_s"])
    for record in records:
        table.add_row([
            record.method,
            record.config["edge_fraction"],
            record.graph["sparsifier_edges"],
            f"{record.quality['kappa']:.2f}",
            record.quality["pcg_iterations"],
            format_seconds(record.timings["sparsify_seconds"]),
        ])
    print(table.render())
    stats = session.stats()
    reused = sum(stats["hits"].values())
    print(f"session artifacts: {stats['entries']} cached, "
          f"{reused} reuse hits "
          f"({', '.join(f'{k}={v}' for k, v in sorted(stats['hits'].items()))})")
    disk = stats.get("disk")
    if disk is not None:
        loaded = sum(disk["hits"].values())
        stored = sum(disk["stores"].values())
        print(f"disk cache [{disk['root']}]: {loaded} loaded, "
              f"{stored} stored"
              + (f", {sum(disk['evictions'].values())} corrupt evicted"
                 if disk["evictions"] else "")
              + (f", {sum(disk['errors'].values())} write errors "
                 "(cache root unwritable? results unaffected)"
                 if disk["errors"] else "")
              + (" (warm run: setup skipped)" if loaded and not stored
                 else ""))
    return 0


def _cmd_transient(args) -> int:
    options = _provided_options(args, methods=[args.method])
    seed = int(options.get("seed", 0))
    netlist, spec = make_pg_case(args.case, scale=args.scale, seed=seed)
    probe = netlist.loads[0].node
    if not args.json:
        print(f"{spec.name}: {netlist.n} nodes, {len(netlist.loads)} loads")
    direct = simulate_transient_direct(
        netlist, t_end=args.t_end, step=10e-12, probes=[probe]
    )
    factor, sparsify_seconds, result = build_sparsifier_preconditioner(
        netlist, method=args.method, **options
    )
    iterative = simulate_transient_pcg(
        netlist, factor, t_end=args.t_end, probes=[probe]
    )
    deviation = max_probe_difference(direct, iterative, probe)
    if args.json:
        record = RunRecord.from_result(
            result, method=args.method, label=spec.name
        )
        print(json.dumps({
            "command": "transient",
            "case": spec.name,
            "nodes": int(netlist.n),
            "loads": len(netlist.loads),
            "t_end": args.t_end,
            "direct": {
                "steps": int(direct.steps),
                "transient_seconds": float(direct.transient_seconds),
                "memory_bytes": int(direct.memory_bytes),
            },
            "pcg": {
                "steps": int(iterative.steps),
                "transient_seconds": float(iterative.transient_seconds),
                "avg_iterations": float(iterative.avg_iterations),
                "memory_bytes": int(iterative.memory_bytes),
            },
            "deviation_volts": float(deviation),
            "sparsifier": record.to_dict(),
        }, indent=2, sort_keys=True))
        return 0
    table = Table(["solver", "steps", "Ttr_s", "avg_iters", "memory"])
    table.add_row(
        ["direct (10 ps)", direct.steps, direct.transient_seconds, "-",
         format_bytes(direct.memory_bytes)]
    )
    table.add_row(
        ["pcg (<=200 ps)", iterative.steps, iterative.transient_seconds,
         f"{iterative.avg_iterations:.1f}",
         format_bytes(iterative.memory_bytes)]
    )
    print(table.render())
    print(f"sparsification ({args.method}): {sparsify_seconds:.2f} s; "
          f"waveform deviation {deviation * 1e3:.2f} mV (< 16 mV expected)")
    return 0


def _cmd_partition(args) -> int:
    options = _provided_options(args, methods=[args.method])
    seed = int(options.get("seed", 0))
    graph, spec = make_case(args.case, scale=args.scale, seed=seed)
    if not args.json:
        print(f"{spec.name}: {graph.n} nodes, {graph.edge_count} edges")
    direct = fiedler_vector(graph, method="direct", steps=args.steps,
                            seed=seed)
    factor, result = build_partition_preconditioner(
        graph, method=args.method, **options
    )
    iterative = fiedler_vector(
        graph, method="pcg", preconditioner=factor, steps=args.steps,
        seed=seed,
    )
    err = partition_relative_error(
        spectral_bipartition(direct.vector),
        spectral_bipartition(iterative.vector),
    )
    if args.json:
        record = RunRecord.from_result(
            result, method=args.method, label=spec.name
        )
        print(json.dumps({
            "command": "partition",
            "case": spec.name,
            "steps": args.steps,
            "direct": {
                "seconds": float(direct.seconds),
                "memory_bytes": int(direct.memory_bytes),
            },
            "pcg": {
                "seconds": float(iterative.seconds),
                "avg_iterations": float(iterative.avg_iterations),
                "memory_bytes": int(iterative.memory_bytes),
            },
            "relative_error": float(err),
            "sparsifier": record.to_dict(),
        }, indent=2, sort_keys=True))
        return 0
    table = Table(["solver", "seconds", "avg_iters", "memory", "RelErr"])
    table.add_row(
        ["direct", direct.seconds, "-", format_bytes(direct.memory_bytes), "-"]
    )
    table.add_row(
        ["pcg", iterative.seconds, f"{iterative.avg_iterations:.1f}",
         format_bytes(iterative.memory_bytes), f"{err:.2E}"]
    )
    print(table.render())
    return 0


def _cmd_serve(args) -> int:
    from repro.service import serve

    if not args.cache and args.cache_dir is not None:
        raise CacheError(
            "--no-cache and --cache-dir contradict each other; drop one"
        )
    return serve(
        host=args.host, port=args.port, workers=args.workers,
        persistent=args.cache, cache_dir=args.cache_dir,
        max_sessions=args.max_sessions, max_jobs=args.max_jobs,
        executor=args.executor, retries=args.retries,
        verbose=args.verbose,
    )


def _cmd_submit(args) -> int:
    from repro.service import ServiceClient

    options = _provided_options(args, methods=[args.method])
    client = ServiceClient(args.url)
    job = client.submit(
        case=args.case, scale=args.scale, mtx_file=args.mtx,
        mtx_path=args.mtx_path, method=args.method, label=args.label,
        priority=args.priority, evaluate=args.evaluate, options=options,
    )
    if not args.wait:
        if args.json:
            print(json.dumps(job, indent=2, sort_keys=True))
        else:
            print(f"submitted {job['id']} (status {job['status']}"
                  + (f", deduplicated onto {job['dedup_of']}"
                     if job.get("dedup_of") else "") + ")")
        return 0
    record = client.result(job["id"], timeout=args.timeout)
    if args.json:
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    final = client.job(job["id"])
    graph = record["graph"]
    print(f"{job['id']}: done ({graph['label']}, {graph['nodes']} nodes, "
          f"{graph['edges']} -> {graph['sparsifier_edges']} edges)"
          + (f"; deduplicated onto {final['dedup_of']}"
             if final.get("dedup_of") else ""))
    table = Table(["metric", "value"])
    table.add_row(["method", record["method"]])
    for name, value in sorted(record["timings"].items()):
        table.add_row([name, format_seconds(value)])
    if record.get("quality"):
        table.add_row(["kappa(L_G, L_P)", record["quality"]["kappa"]])
        table.add_row(["PCG iterations",
                       record["quality"]["pcg_iterations"]])
    print(table.render())
    return 0


def _cmd_jobs(args) -> int:
    from repro.service import ServiceClient

    client = ServiceClient(args.url)
    if args.cancel:
        job = client.cancel(args.cancel)
        if args.json:
            print(json.dumps(job, indent=2, sort_keys=True))
        else:
            print(f"cancelled {job['id']}")
        return 0
    if args.job:
        job = client.job(args.job)
        print(json.dumps(job, indent=2, sort_keys=True))
        return 0
    listing = client.jobs(status=args.status, limit=args.limit)
    if args.json:
        print(json.dumps(listing, indent=2, sort_keys=True))
        return 0
    table = Table(["id", "status", "method", "graph", "priority",
                   "dedup_of"])
    for job in listing:
        spec = job["spec"]
        source = spec["graph"]
        graph = (source.get("case") or source.get("mtx_path")
                 or "<upload>")
        table.add_row([
            job["id"], job["status"], spec["method"], graph,
            spec["priority"], job.get("dedup_of") or "-",
        ])
    print(table.render())
    stats = client.stats()
    print(f"queue depth {stats['queue_depth']}, running "
          f"{stats['running']}, dedup hits {stats['dedup_hits']}, "
          f"{stats['sessions']} warm sessions")
    return 0


def _cmd_graphs(args) -> int:
    from repro.service import ServiceClient

    client = ServiceClient(args.url)
    if args.show:
        print(json.dumps(client.graph_sparsifier(args.show),
                         indent=2, sort_keys=True))
        return 0
    if args.delete:
        session = client.delete_graph(args.delete)
        if args.json:
            print(json.dumps(session, indent=2, sort_keys=True))
        else:
            print(f"deleted {session['id']}")
        return 0
    if args.create:
        options = _provided_options(args, methods=[args.method])
        session = client.create_graph(
            case=args.case, scale=args.scale, mtx_file=args.mtx,
            mtx_path=args.mtx_path, method=args.method,
            label=args.label, drift_budget=args.drift_budget,
            locality_beta=args.locality_beta, options=options,
        )
        if args.json:
            print(json.dumps(session, indent=2, sort_keys=True))
        else:
            summary = session["summary"]
            print(f"created {session['id']} ({summary['label']}, "
                  f"{summary['nodes']} nodes, "
                  f"{summary['sparsifier_edges']} sparsifier edges)")
        return 0
    listing = client.graphs()
    if args.json:
        print(json.dumps(listing, indent=2, sort_keys=True))
        return 0
    table = Table(["id", "graph", "method", "batches", "rebuilds",
                   "edges", "drift"])
    for session in listing:
        summary = session["summary"]
        table.add_row([
            session["id"], summary["label"], summary["method"],
            summary["batches"], summary["rebuilds"],
            summary["sparsifier_edges"],
            f"{summary['drift_estimate']:.3f}",
        ])
    print(table.render())
    return 0


def _parse_insert(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ServiceError(
            f"--insert takes U,V,W (got {text!r})"
        )
    try:
        return int(parts[0]), int(parts[1]), float(parts[2])
    except ValueError:
        raise ServiceError(
            f"--insert takes integer endpoints and a float weight "
            f"(got {text!r})"
        ) from None


def _parse_delete(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ServiceError(f"--delete takes U,V (got {text!r})")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ServiceError(
            f"--delete takes integer endpoints (got {text!r})"
        ) from None


def _cmd_patch(args) -> int:
    from repro.service import ServiceClient

    inserts = [_parse_insert(text) for text in args.insert]
    deletes = [_parse_delete(text) for text in args.delete]
    if not inserts and not deletes:
        raise ServiceError(
            "an edge batch needs at least one --insert or --delete"
        )
    client = ServiceClient(args.url)
    result = client.patch_graph(args.graph, inserts=inserts,
                                deletes=deletes)
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    entry = result["entry"]
    summary = result["summary"]
    print(f"{result['id']} batch {entry['batch']}: "
          f"+{entry['inserted']}/-{entry['deleted']} edges, "
          f"touched {entry['touched_nodes']} nodes, "
          + ("full rebuild"
             if entry["rebuild"] else
             f"drift {summary['drift_estimate']:.3f}"
             f"/{summary['drift_budget']:.0f}")
          + f"; sparsifier now {summary['sparsifier_edges']} edges")
    return 0


def _cmd_cache(args) -> int:
    from repro.core.diskcache import (
        cache_root_stats,
        clear_cache_root,
        collect_cache_garbage,
    )

    if args.action == "stats":
        stats = cache_root_stats(args.cache_dir)
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
            return 0
        print(f"cache root {stats['root']}"
              + ("" if stats["exists"] else " (does not exist yet)"))
        table = Table(["kind", "entries", "size"])
        for kind, slot in stats["by_kind"].items():
            table.add_row([kind, slot["entries"],
                           format_bytes(slot["bytes"])])
        table.add_row(["total", stats["entries"],
                       format_bytes(stats["bytes"])])
        print(table.render())
        print(f"{stats['graphs']} graph namespace(s)")
        return 0
    if args.action == "gc":
        removed = collect_cache_garbage(
            args.cache_dir, max_age_days=args.max_age_days
        )
    else:
        removed = clear_cache_root(args.cache_dir)
    if args.json:
        print(json.dumps({"action": args.action, "removed": removed},
                         indent=2, sort_keys=True))
    else:
        print(f"cache {args.action}: removed {removed} entr"
              f"{'y' if removed == 1 else 'ies'}")
    return 0


_COMMANDS = {
    "cases": _cmd_cases,
    "methods": _cmd_methods,
    "sparsify": _cmd_sparsify,
    "sweep": _cmd_sweep,
    "transient": _cmd_transient,
    "partition": _cmd_partition,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
    "graphs": _cmd_graphs,
    "patch": _cmd_patch,
    "cache": _cmd_cache,
}


def main(argv=None) -> int:
    """Run the ``repro`` command-line interface.

    Parameters
    ----------
    argv : list of str, optional
        Argument vector; defaults to ``sys.argv[1:]``.  See the module
        docstring for the available subcommands.

    Returns
    -------
    int
        Process exit code: 0 on success, 2 on a usage error such as an
        option the chosen method does not accept.
    """
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
