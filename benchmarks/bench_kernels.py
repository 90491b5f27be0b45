"""Micro-benchmarks of the package's hot kernels.

Unlike the table benchmarks (one-shot pipeline timings), these use
pytest-benchmark's statistical repetition to characterize the building
blocks: Cholesky factorization, SPAI construction, the two criticality
kernels, batch LCA, and a preconditioned PCG solve.

The kernel-tier section at the bottom compares the
:mod:`repro.kernels` tiers (pure-Python reference vs numpy vector vs
numba, where installed) on each hot-path kernel, asserts their outputs
bitwise identical, and writes the speedups to ``BENCH_kernels.json``.
Run it standalone as ``python benchmarks/bench_kernels.py --smoke``
(the ``make kernels-smoke`` gate): it fails unless the fastest
available tier beats the reference by >= 5x on the scoring kernel.
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
sys.path.append(str(REPO_ROOT / "tests"))  # the per-edge loop oracle

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro.core import ApproxRanker, score_edges, tree_truncated_trace_reduction
from repro.graph import (
    BallFinder,
    grid2d,
    incidence_matrix,
    make_case,
    regularization_shift,
    regularized_laplacian,
)
from repro.kernels import (
    available_kernel_sets,
    get_kernels,
    kernel_capabilities,
    resolve_kernels,
)
from repro.linalg import cholesky, pcg, sparse_approximate_inverse
from repro.tree import RootedForest, batch_tree_resistances, mewst
from repro.utils.reporting import Table

from conftest import emit
from oracles import approximate_trace_reduction


@pytest.fixture(scope="module")
def setting(scale):
    graph, _ = make_case("ecology2", scale=scale * 0.4, seed=0)
    shift = regularization_shift(graph)
    laplacian_g = regularized_laplacian(graph, shift, fmt="csr")
    tree_ids = mewst(graph)
    forest = RootedForest(graph, tree_ids)
    tree = graph.subgraph(tree_ids)
    laplacian_t = regularized_laplacian(tree, shift)
    factor = cholesky(laplacian_t)
    off = np.flatnonzero(~forest.tree_edge_mask())
    return graph, laplacian_g, forest, tree, laplacian_t, factor, off


def test_cholesky_superlu(benchmark, setting):
    _, _, _, _, laplacian_t, _, _ = setting
    benchmark(lambda: cholesky(laplacian_t, backend="superlu"))


def test_spai_default_delta(benchmark, setting):
    _, _, _, _, _, factor, _ = setting
    benchmark(lambda: sparse_approximate_inverse(factor.L, delta=0.1))


def test_tree_phase_criticality(benchmark, setting):
    graph, _, forest, _, _, _, off = setting
    subset = off[: min(len(off), 2000)]
    benchmark(
        lambda: tree_truncated_trace_reduction(
            graph, forest, edge_ids=subset, beta=5
        )
    )


def test_approximate_criticality(benchmark, setting):
    graph, _, _, tree, _, factor, off = setting
    Z = sparse_approximate_inverse(factor.L, delta=0.1)
    subset = off[: min(len(off), 2000)]
    benchmark(
        lambda: ApproxRanker(graph, tree, factor, Z, beta=5).score_batch(
            subset
        )
    )


def test_batch_lca_resistances(benchmark, setting):
    graph, _, forest, _, _, _, off = setting
    benchmark(
        lambda: batch_tree_resistances(forest, graph.u[off], graph.v[off])
    )


# ----------------------------------------------------------------------
# Batched ranking engine vs serial scoring (>= 20k nodes).
#
# Three paths over identical candidates, equal to rtol 1e-10 (the
# batched path reorders floating-point reductions):
#
# * "serial per-edge"  — one call of the Eq. 20 loop oracle
#   (tests/oracles.py) per candidate, re-allocating work arrays and
#   re-growing BFS balls every time (what naive per-candidate scoring
#   costs);
# * "whole-batch reference" — one loop-oracle call over the full
#   candidate array (the per-candidate loop the engine replaced);
# * "batched ranker"   — ApproxRanker.score_batch, segmented array
#   operations over the whole batch (the production path).
# ----------------------------------------------------------------------

_RANKING_SUBSET = 300  # candidates scored per timing (serial path is slow)


@pytest.fixture(scope="module")
def ranking_setting(scale):
    # ecology2 at >= 2.1x its base size puts the grid above 20k nodes.
    graph, _ = make_case("ecology2", scale=max(scale, 1.0) * 2.1, seed=0)
    assert graph.n >= 20_000
    shift = regularization_shift(graph)
    tree_ids = mewst(graph)
    forest = RootedForest(graph, tree_ids)
    tree = graph.subgraph(tree_ids)
    factor = cholesky(regularized_laplacian(tree, shift))
    Z = sparse_approximate_inverse(factor.L, delta=0.1)
    off = np.flatnonzero(~forest.tree_edge_mask())
    rng = np.random.default_rng(0)
    subset = np.sort(rng.choice(off, size=_RANKING_SUBSET, replace=False))
    return graph, tree, factor, Z, subset


def _rank_serial_per_edge(graph, tree, factor, Z, subset):
    return np.array([
        float(
            approximate_trace_reduction(graph, tree, factor, Z, [e], beta=5)[0]
        )
        for e in subset
    ])


def _rank_reference_whole_batch(graph, tree, factor, Z, subset):
    return approximate_trace_reduction(graph, tree, factor, Z, subset, beta=5)


def _rank_batched(graph, tree, factor, Z, subset):
    ranker = ApproxRanker(graph, tree, factor, Z, beta=5)
    return score_edges(ranker, subset, workers=1)


def _best_of(fn, repeats=2):
    """Best wall-clock of *repeats* runs (dampens scheduler noise)."""
    best = np.inf
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_ranking_serial_per_edge(benchmark, ranking_setting):
    graph, tree, factor, Z, subset = ranking_setting
    benchmark(lambda: _rank_serial_per_edge(graph, tree, factor, Z, subset))


def test_ranking_reference_whole_batch(benchmark, ranking_setting):
    graph, tree, factor, Z, subset = ranking_setting
    benchmark(
        lambda: _rank_reference_whole_batch(graph, tree, factor, Z, subset)
    )


def test_ranking_batched(benchmark, ranking_setting):
    graph, tree, factor, Z, subset = ranking_setting
    benchmark(lambda: _rank_batched(graph, tree, factor, Z, subset))


#: Gate on the batched ranker's speedup over per-edge scoring: half of
#: the median 41.0x (five runs: 39.6x-49.9x) measured on a 2-core x86
#: host when the batched path landed; the per-candidate ranker it
#: replaced measured 15.6x there.
_RANKING_SPEEDUP_GATE = 20.0


def test_ranking_batched_vs_serial_report(ranking_setting):
    """Time the three paths, emit the comparison, gate the speedup."""
    graph, tree, factor, Z, subset = ranking_setting

    serial_scores, serial_seconds = _best_of(
        lambda: _rank_serial_per_edge(graph, tree, factor, Z, subset)
    )
    reference_scores, reference_seconds = _best_of(
        lambda: _rank_reference_whole_batch(graph, tree, factor, Z, subset)
    )
    batched_scores, batched_seconds = _best_of(
        lambda: _rank_batched(graph, tree, factor, Z, subset)
    )

    np.testing.assert_allclose(batched_scores, serial_scores, rtol=1e-10)
    np.testing.assert_allclose(batched_scores, reference_scores, rtol=1e-10)
    speedup = serial_seconds / batched_seconds
    vs_reference = reference_seconds / batched_seconds
    table = Table(["path", "candidates", "seconds", "edges/s"])
    for label, seconds in (
        ("serial per-edge", serial_seconds),
        ("whole-batch reference", reference_seconds),
        ("batched ranker", batched_seconds),
    ):
        table.add_row(
            [label, len(subset), f"{seconds:.3f}",
             f"{len(subset) / seconds:.0f}"]
        )
    emit(
        "kernels_ranking_batched_vs_serial",
        table.render()
        + f"\nn = {graph.n} nodes; {speedup:.1f}x vs per-edge, "
        f"{vs_reference:.2f}x vs whole-batch reference",
    )
    assert speedup >= _RANKING_SPEEDUP_GATE, (
        f"batched ranking only {speedup:.1f}x faster than per-edge "
        f"(gate {_RANKING_SPEEDUP_GATE:.0f}x)"
    )


def test_pcg_tree_preconditioned(benchmark, setting):
    graph, laplacian_g, _, _, _, factor, _ = setting
    rng = np.random.default_rng(0)
    rhs = rng.standard_normal(graph.n)
    result = benchmark(
        lambda: pcg(laplacian_g, rhs, M_solve=factor.solve, rtol=1e-3)
    )
    assert result.converged


# ----------------------------------------------------------------------
# Kernel tiers: every available repro.kernels tier on each hot-path
# kernel, against the pure-Python reference.  Outputs must be bitwise
# identical (the parity contract of repro/kernels/base.py); the timings
# land in BENCH_kernels.json.  `make kernels-smoke` runs main() below
# and fails unless the fastest non-reference tier wins the scoring
# kernel by >= 5x.
# ----------------------------------------------------------------------

_SCORING_KERNEL = "scoring"  # the gated kernel (ball_pair_edge_sum_flat)
_SMOKE_SPEEDUP_TARGET = 5.0


def _build_tier_workloads(smoke: bool):
    """Fixed, seeded workloads: kernel name -> (description, calls, runner).

    Each runner takes a tier and returns one flat float64 array so the
    cross-tier comparison is a single ``np.array_equal``.  All inputs
    are built once (with the always-available vector tier) and shared,
    so tiers are timed on identical data.
    """
    side = 40 if smoke else 56
    beta = 12  # production betas are 5-8; larger balls stabilize timings
    n_pairs = 50 if smoke else 120
    n_probes = 12 if smoke else 24
    graph = grid2d(side, side, weights="uniform", seed=7)
    indptr, nbr_arr, eid_arr = graph.adjacency()
    weights = graph.w
    rng = np.random.default_rng(7)
    values = rng.standard_normal(graph.n)
    vector = get_kernels("vector")

    # Edge-pair scoring inputs: beta-balls around both endpoints of
    # random edges, the q-ball stamped, the p-ball incidence flattened —
    # exactly what the per-candidate loop oracle feeds the scoring kernel.
    finder = BallFinder(indptr, nbr_arr, kernels=vector)
    edges = rng.choice(graph.edge_count, size=n_pairs, replace=False)
    stamp = np.zeros(graph.n, dtype=np.int64)
    range_args = []
    flat_pairs = []
    for k, e in enumerate(edges):
        p, q = int(graph.u[e]), int(graph.v[e])
        nodes_p = finder.ball_nodes(p, beta)
        nodes_q = finder.ball_nodes(q, beta)
        clock = k + 1
        stamp[nodes_q] = clock
        starts = indptr[nodes_p]
        lengths = indptr[nodes_p + 1] - starts
        flat = vector.concat_ranges(starts, lengths)
        range_args.append((starts, lengths))
        flat_pairs.append(
            (np.repeat(nodes_p, lengths), nbr_arr[flat], eid_arr[flat], clock)
        )

    def run_scoring(tier):
        return np.asarray([
            tier.ball_pair_edge_sum_flat(
                sources, nbrs, eids, weights, stamp, clock, values
            )
            for sources, nbrs, eids, clock in flat_pairs
        ])

    def run_concat(tier):
        return np.concatenate(
            [tier.concat_ranges(s, ln) for s, ln in range_args]
        ).astype(np.float64)

    centers = np.concatenate([graph.u[edges], graph.v[edges]])

    def run_expand(tier):
        tier_finder = BallFinder(indptr, nbr_arr, kernels=tier)
        return np.concatenate(
            [tier_finder.ball_nodes(int(c), beta) for c in centers]
        ).astype(np.float64)

    # SPAI column gather over the real preconditioner of the grid's
    # low-stretch tree, on the column subsets a scoring round requests.
    shift = regularization_shift(graph)
    tree = graph.subgraph(mewst(graph))
    factor = cholesky(regularized_laplacian(tree, shift))
    Z = sparse_approximate_inverse(factor.L, delta=0.1)
    col_sets = [
        np.sort(rng.choice(graph.n, size=64, replace=False))
        for _ in range(20 if smoke else 40)
    ]

    def run_gather(tier):
        parts = []
        for cols in col_sets:
            for part in tier.gather_csc_columns(
                Z.indptr, Z.indices, Z.data, cols
            ):
                parts.append(np.asarray(part, dtype=np.float64))
        return np.concatenate(parts)

    incidence = incidence_matrix(graph, weighted=True)
    probes = rng.choice([-1.0, 1.0], size=(n_probes, incidence.shape[0]))

    def run_probe(tier):
        return np.concatenate([tier.probe_rhs(incidence, q) for q in probes])

    grid_desc = f"{side}x{side} uniform grid, beta={beta} balls"
    return {
        _SCORING_KERNEL: (
            f"{n_pairs} ball-pair restricted quadratic forms ({grid_desc})",
            n_pairs, run_scoring,
        ),
        "concat_ranges": (
            f"{n_pairs} ball incidence flattenings ({grid_desc})",
            n_pairs, run_concat,
        ),
        "expand_frontier": (
            f"{len(centers)} bulk-BFS ball expansions ({grid_desc})",
            len(centers), run_expand,
        ),
        "gather_csc_columns": (
            f"{len(col_sets)} x 64-column SPAI gathers (nnz={Z.nnz})",
            len(col_sets), run_gather,
        ),
        "probe_rhs": (
            f"{n_probes} Hutchinson probe RHS (m={incidence.shape[0]})",
            n_probes, run_probe,
        ),
    }


def _compare_kernel_tiers(smoke: bool = False):
    """Time every available tier per kernel; assert bitwise parity."""
    workloads = _build_tier_workloads(smoke)
    tiers = [get_kernels(name) for name in available_kernel_sets()]
    records = []
    for kernel_name, (description, calls, runner) in workloads.items():
        seconds = {}
        outputs = {}
        for tier in tiers:
            out, best = _best_of(lambda t=tier: runner(t))
            seconds[tier.name] = best
            outputs[tier.name] = out
        reference = outputs["python"]
        for tier_name, out in outputs.items():
            assert np.array_equal(reference, out), (
                f"{kernel_name}: tier {tier_name!r} diverged from the "
                "pure-Python reference"
            )
        records.append({
            "kernel": kernel_name,
            "workload": description,
            "calls": calls,
            "seconds": {k: round(v, 6) for k, v in seconds.items()},
            "speedup_vs_python": {
                k: round(seconds["python"] / v, 2)
                for k, v in seconds.items()
            },
            "bitwise_identical": True,
        })
    return records


def _tier_table(records) -> Table:
    tier_names = sorted(records[0]["seconds"])
    table = Table(
        ["kernel", "calls"]
        + [f"{name} (s)" for name in tier_names]
        + [f"{name} speedup" for name in tier_names if name != "python"]
    )
    for record in records:
        table.add_row(
            [record["kernel"], record["calls"]]
            + [f"{record['seconds'][n]:.4f}" for n in tier_names]
            + [
                f"{record['speedup_vs_python'][n]:.1f}x"
                for n in tier_names if n != "python"
            ]
        )
    return table


def test_kernel_tier_parity_report():
    """Every tier bit-identical on every kernel; emit the speedups."""
    records = _compare_kernel_tiers(smoke=True)
    assert all(record["bitwise_identical"] for record in records)
    assert {record["kernel"] for record in records} >= {
        _SCORING_KERNEL, "concat_ranges", "expand_frontier",
        "gather_csc_columns", "probe_rhs",
    }
    emit(
        "kernels_tier_comparison",
        _tier_table(records).render()
        + f"\ntiers compared: {', '.join(available_kernel_sets())}; "
        "all outputs bitwise identical",
    )


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        description="Compare repro.kernels tiers and write BENCH_kernels.json"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="smaller workloads (the `make kernels-smoke` gate)",
    )
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_kernels.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    start = time.perf_counter()
    records = _compare_kernel_tiers(smoke=args.smoke)
    elapsed = time.perf_counter() - start

    payload = {
        "generated_by": "benchmarks/bench_kernels.py",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "smoke": bool(args.smoke),
        "elapsed_seconds": round(elapsed, 3),
        "kernel_sets": kernel_capabilities(),
        "auto_resolves_to": resolve_kernels(),
        "records": records,
    }
    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    print(_tier_table(records).render())
    print(f"wrote {output}")

    scoring = next(r for r in records if r["kernel"] == _SCORING_KERNEL)
    contenders = {
        name: scoring["seconds"][name]
        for name in scoring["seconds"] if name != "python"
    }
    best = min(contenders, key=contenders.get)
    speedup = scoring["seconds"]["python"] / contenders[best]
    print(
        f"scoring kernel: {best} tier {speedup:.1f}x faster than the "
        f"pure-Python reference (target >= {_SMOKE_SPEEDUP_TARGET:.0f}x)"
    )
    if speedup < _SMOKE_SPEEDUP_TARGET:
        raise SystemExit(
            f"kernel smoke gate FAILED: fastest tier ({best}) is only "
            f"{speedup:.1f}x the reference on the scoring kernel "
            f"(target {_SMOKE_SPEEDUP_TARGET:.0f}x)"
        )


if __name__ == "__main__":
    main()
