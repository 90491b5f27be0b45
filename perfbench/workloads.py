"""The three benchmark workloads and the output checks they share.

Each workload turns a seed into inputs (:meth:`setup`), warms the code
paths it times on a tiny input (:meth:`warm_up`), and runs one timed
iteration (:meth:`iterate`) that returns an :class:`Outcome`.  Every
call into ``repro`` that the metrics time goes through
``phases.time(kind)``, which measures it and, in a traced run, opens the
tracer's root span of that kind.  Output checks run outside the timed
calls; a failed check counts its operation as failed, it never stops
the run.  See ``README.md`` for why each workload exists.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np
from scipy.sparse.csgraph import connected_components

# Calls go through module attributes (``pg.simulate_transient_pcg``),
# never names imported here, so an installed tracer sees them.
import repro
import repro.powergrid.transient as pg
from repro.graph import make_case
from repro.powergrid.benchmarks import make_pg_case
from repro.powergrid.waveforms import breakpoints_union

#: The paper's settings for ``proposed``: alpha = 0.10, N_r = 5.
PROPOSED = {"edge_fraction": 0.10, "rounds": 5, "workers": 1}
#: PCG tolerance of the paper's Table 1.
PCG_RTOL = 1e-3
#: Fig. 1 acceptance bound on the transient probe waveform.
DEVIATION_BOUND_V = 16e-3


def _reference_kernel() -> int:
    """Fixed pure-Python and numpy work that never touches ``repro``."""
    counts: dict = {}
    total = 0
    for i in range(80_000):
        counts[i % 977] = counts.get(i % 977, 0) + i
        total += i * i
    x = np.linspace(-1.0, 1.0, 40_000)[::-1].copy()
    for _ in range(10):
        x = np.sort(x) * 0.5 + 0.1
    return total + len(counts)


def reference_seconds(repeats: int = 8) -> float:
    """Median time of the reference kernel: the host's current speed."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        _reference_kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


class Phases:
    """Accumulates seconds per kind of timed call within one iteration."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.seconds: dict = {}

    @contextmanager
    def time(self, kind: str):
        scope = self.tracer.root(kind) if self.tracer else nullcontext()
        start = perf_counter()
        try:
            with scope:
                yield
        finally:
            elapsed = perf_counter() - start
            self.seconds[kind] = self.seconds.get(kind, 0.0) + elapsed


@dataclass
class Outcome:
    """What one timed iteration measured and how its checks went."""

    phases: Phases
    updates: list            # latency of each sparsifier-producing call
    kappa: float
    pcg_iters: float
    digest: str
    attempted: int = 0
    failures: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def operation(self, name: str, problems) -> None:
        """Count one operation; it fails if any check reported a problem."""
        self.attempted += 1
        problems = [p for p in problems if p]
        if problems:
            self.failures.append(f"{name}: {'; '.join(problems)}")

    @property
    def wall_s(self) -> float:
        return sum(self.phases.seconds.values())


# ----------------------------------------------------------------------
# shared output checks
# ----------------------------------------------------------------------
def _components(graph) -> int:
    return connected_components(graph.to_scipy_adjacency(),
                                directed=False)[0]


def check_sparsifier(graph, sparsifier, edge_fraction: float) -> list:
    """Problems with *sparsifier* as a sparsifier of *graph* (empty = ok).

    It must use only edges of ``G``, span every node and be connected
    per component of ``G``, and recover at most ``round(alpha * n)``
    edges beyond a spanning forest.
    """
    problems = []
    if sparsifier.n != graph.n:
        problems.append(f"node count {sparsifier.n} != {graph.n}")
        return problems
    if not sparsifier.edge_key_set() <= graph.edge_key_set():
        problems.append("uses edges not in G")
    components = _components(graph)
    if _components(sparsifier) != components:
        problems.append("not connected per component of G")
    forest = graph.n - components
    budget = int(round(edge_fraction * graph.n))
    if sparsifier.edge_count - forest > budget:
        problems.append(
            f"{sparsifier.edge_count - forest} off-forest edges over "
            f"budget {budget}")
    return problems


def check_kappa(kappa: float) -> list:
    return [] if math.isfinite(kappa) and kappa >= 1.0 - 1e-9 else [
        f"kappa {kappa!r} not finite and >= 1"]


def check_report(report) -> list:
    """Problems with an ``evaluate_sparsifier`` quality report."""
    return check_kappa(report.kappa) + (
        [] if report.pcg_converged else ["PCG did not converge"])


def check_converged(results) -> list:
    failed = sum(1 for result in results if not result.converged)
    return [f"{failed} PCG solves did not converge"] if failed else []


def edge_digest(graph) -> str:
    """Digest of an edge set, independent of edge order."""
    keys = np.sort(graph.u.astype(np.int64) * graph.n
                   + graph.v.astype(np.int64))
    return hashlib.sha256(keys.tobytes()).hexdigest()[:16]


def solve_block(graph, sparsifier, rhs_count: int, seed: int):
    """Factor ``L_P`` and PCG-solve ``L_G x = b`` for seeded ``b``."""
    shift = repro.graph.regularization_shift(graph)
    laplacian_g = repro.graph.regularized_laplacian(graph, shift,
                                                    fmt="csr")
    factor = repro.linalg.cholesky(
        repro.graph.regularized_laplacian(sparsifier, shift))
    rng = np.random.default_rng(seed)
    return [
        repro.pcg_performance(laplacian_g, factor, rtol=PCG_RTOL,
                              rhs=rng.standard_normal(graph.n))[2]
        for _ in range(rhs_count)
    ]


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class MeshCase:
    """``proposed`` on the full-scale NLR mesh, then evaluation and PCG."""

    name = "mesh-16k"
    case, scale = "NLR", 1.0
    rhs_count = 8

    def setup(self, seed: int) -> dict:
        graph, _ = make_case(self.case, scale=self.scale, seed=seed)
        return {"graph": graph, "seed": seed}

    def warm_up(self) -> None:
        graph, _ = make_case(self.case, scale=0.01, seed=0)
        result = repro.sparsify(graph, "proposed", **PROPOSED)
        repro.evaluate_sparsifier(graph, result.sparsifier)
        solve_block(graph, result.sparsifier, 1, 0)

    def baseline_graph(self, inputs):
        return inputs["graph"]

    def iterate(self, inputs, phases: Phases) -> Outcome:
        graph, seed = inputs["graph"], inputs["seed"]
        with phases.time("sparsify"):
            result = repro.sparsify(graph, "proposed", **PROPOSED)
        sparsifier = result.sparsifier
        with phases.time("evaluate"):
            report = repro.evaluate_sparsifier(
                graph, sparsifier, rtol=PCG_RTOL, seed=seed)
        with phases.time("solve"):
            solves = solve_block(graph, sparsifier, self.rhs_count, seed)
        outcome = Outcome(phases, [phases.seconds["sparsify"]],
                          report.kappa, report.pcg_iterations,
                          edge_digest(sparsifier))
        outcome.operation("sparsify", check_sparsifier(
            graph, sparsifier, PROPOSED["edge_fraction"]))
        outcome.operation("evaluate", check_report(report))
        outcome.operation("solve", check_converged(solves))
        return outcome


def horizon_for_steps(netlist, steps: int, max_step: float) -> float:
    """The ``t_end`` at which ``simulate_transient_pcg`` takes *steps* steps.

    Its steps land on every waveform breakpoint and are at most
    *max_step* long, so a fixed horizon would make the step count, and
    the work, depend on the seed's waveforms.
    """
    points = breakpoints_union(netlist.load_patterns(), steps * max_step)
    t = 0.0
    for _ in range(steps):
        after = np.searchsorted(points, t + 1e-18, side="right")
        t = min(points[after], t + max_step)
    return float(t)


class PowerGridTransient:
    """Sparsifier preconditioner on a PG case, then transient PCG.

    The grid is fixed and the seed draws the current loads: kappa of
    the sparsifier moves by a fifth between generated grids.
    """

    name = "pg-transient"
    case = "thupg1t"
    steps = 500                # stepping costs about as much as sparsify
    max_step = 200e-12         # simulate_transient_pcg's step cap
    reference_t_end = 1e-9     # direct-solver reference prefix

    def setup(self, seed: int) -> dict:
        netlist, _ = make_pg_case(self.case, seed=0)
        netlist = replace(
            netlist, loads=make_pg_case(self.case, seed=seed)[0].loads)
        probe = int(netlist.loads[0].node)
        reference = pg.simulate_transient_direct(
            netlist, t_end=self.reference_t_end, step=10e-12,
            probes=[probe])
        return {"netlist": netlist, "probe": probe, "reference": reference,
                "t_end": horizon_for_steps(netlist, self.steps,
                                           self.max_step),
                "seed": seed}

    def warm_up(self) -> None:
        netlist, _ = make_pg_case(self.case, scale=0.05, seed=0)
        factor, _, _ = pg.build_sparsifier_preconditioner(
            netlist, "proposed", **PROPOSED)
        pg.simulate_transient_pcg(netlist, factor, t_end=1e-9)

    def baseline_graph(self, inputs):
        return inputs["netlist"].graph

    def iterate(self, inputs, phases: Phases) -> Outcome:
        netlist, probe = inputs["netlist"], inputs["probe"]
        graph = netlist.graph
        with phases.time("sparsify"):
            factor, _, result = pg.build_sparsifier_preconditioner(
                netlist, "proposed", **PROPOSED)
        with phases.time("solve"):
            transient = pg.simulate_transient_pcg(
                netlist, factor, t_end=inputs["t_end"],
                max_step=self.max_step, probes=[probe])
        sparsifier = result.sparsifier
        with phases.time("evaluate"):
            report = repro.evaluate_sparsifier(
                graph, sparsifier, rtol=PCG_RTOL, seed=inputs["seed"])
        outcome = Outcome(phases, [phases.seconds["sparsify"]],
                          report.kappa, transient.avg_iterations,
                          edge_digest(sparsifier))
        reference = inputs["reference"]
        deviation = float(np.max(np.abs(
            np.interp(reference.times, transient.times,
                      transient.probe(probe))
            - reference.probe(probe))))
        outcome.extra["deviation_mv"] = deviation * 1e3
        outcome.operation("sparsify", check_sparsifier(
            graph, sparsifier, PROPOSED["edge_fraction"]))
        outcome.operation("solve", [
            f"probe deviates {deviation * 1e3:.2f} mV from the direct "
            f"reference (bound {DEVIATION_BOUND_V * 1e3:.0f} mV)"
            if deviation > DEVIATION_BOUND_V else "",
            f"{transient.steps} steps, expected {self.steps}"
            if transient.steps != self.steps else ""])
        outcome.operation("evaluate", check_report(report))
        return outcome


def wedge_stream(graph, rng, *, batches: int, inserts: int, deletes: int):
    """Deterministic edge-mutation batches ``[(inserts, deletes), ...]``.

    Inserted edges close random 2-hop wedges, weighted at the median
    edge weight; deletions recycle earlier insertions, so the graph
    stays connected.  The stream of ``benchmarks/bench_incremental.py``,
    restated so that the benchmark needs no file outside its directory.
    """
    present = set(zip(graph.u.tolist(), graph.v.tolist()))
    weight = float(np.median(graph.w))
    pool: list = []
    stream = []
    for _ in range(batches):
        batch_in = []
        while len(batch_in) < inserts:
            u = int(rng.integers(0, graph.n))
            v = int(rng.choice(graph.neighbors(
                int(rng.choice(graph.neighbors(u))))))
            key = (min(u, v), max(u, v))
            if u == v or key in present:
                continue
            present.add(key)
            batch_in.append((key[0], key[1], weight))
        batch_out = []
        for _ in range(min(deletes, len(pool))):
            u, v, _ = pool.pop(int(rng.integers(0, len(pool))))
            present.discard((u, v))
            batch_out.append((u, v))
        pool.extend(batch_in)
        stream.append((batch_in, batch_out))
    return stream


class EvolvingStream:
    """Build an EvolvingSparsifier, then replay an edge-mutation stream.

    The sparsifier is evaluated after every batch and ``kappa`` and
    ``pcg_iters`` are the medians over the batches: the final value
    alone depends on how long ago the last drift rebuild was.  The
    graph and the stream are fixed and the seed drives the right-hand
    sides (see README.md: kappa swings by a fifth between streams).
    """

    name = "evolving-stream"
    case, scale = "ecology2", 0.1
    batches, inserts, deletes = 36, 4, 1
    drift_budget = 1e6
    rhs_count = 32

    def setup(self, seed: int) -> dict:
        graph, _ = make_case(self.case, scale=self.scale, seed=0)
        stream = wedge_stream(graph, np.random.default_rng(0),
                              batches=self.batches, inserts=self.inserts,
                              deletes=self.deletes)
        return {"graph": graph, "stream": stream, "seed": seed}

    def warm_up(self) -> None:
        graph, _ = make_case(self.case, scale=0.01, seed=0)
        evolving = repro.EvolvingSparsifier(graph, "proposed", **PROPOSED)
        for batch_in, batch_out in wedge_stream(
                graph, np.random.default_rng(0), batches=2, inserts=1,
                deletes=1):
            evolving.apply_batch(inserts=batch_in, deletes=batch_out)

    def baseline_graph(self, inputs):
        return inputs["graph"]

    def iterate(self, inputs, phases: Phases) -> Outcome:
        graph, seed = inputs["graph"], inputs["seed"]
        fraction = PROPOSED["edge_fraction"]
        with phases.time("sparsify"):
            evolving = repro.EvolvingSparsifier(
                graph, "proposed", drift_budget=self.drift_budget,
                **PROPOSED)
        checks = [("build", check_sparsifier(graph, evolving.sparsifier,
                                             fraction))]
        latencies, rebuilt, reports = [], [], []
        for index, (batch_in, batch_out) in enumerate(inputs["stream"]):
            start = perf_counter()
            with phases.time("sparsify"):
                entry = evolving.apply_batch(inserts=batch_in,
                                             deletes=batch_out)
            latencies.append(perf_counter() - start)
            rebuilt.append(bool(entry["rebuild"]))
            sparsifier = evolving.sparsifier
            with phases.time("evaluate"):
                reports.append(repro.evaluate_sparsifier(
                    evolving.graph, sparsifier, rtol=PCG_RTOL, seed=seed))
            checks.append((f"batch {index}", check_sparsifier(
                evolving.graph, sparsifier, fraction)
                + check_report(reports[-1])))
        with phases.time("solve"):
            solves = solve_block(evolving.graph, sparsifier,
                                 self.rhs_count, seed)
        outcome = Outcome(
            phases, latencies,
            statistics.median(r.kappa for r in reports),
            statistics.median(r.pcg_iterations for r in reports),
            edge_digest(sparsifier))
        outcome.extra["rebuilt"] = rebuilt
        for name, problems in checks:
            outcome.operation(name, problems)
        outcome.operation("solve", check_converged(solves))
        return outcome


WORKLOADS = {
    workload.name: workload for workload in (
        MeshCase(),
        PowerGridTransient(),
        EvolvingStream(),
    )
}
