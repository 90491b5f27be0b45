"""Micro-benchmarks of the package's hot kernels.

Unlike the table benchmarks (one-shot pipeline timings), these use
pytest-benchmark's statistical repetition to characterize the building
blocks: Cholesky factorization, SPAI construction, the two criticality
kernels, batch LCA, and a preconditioned PCG solve.  Eight
statistics-free gates: batched ranking, the shared tree set-up, SPAI
and similarity marking in batches against their loop oracles
(``tests/oracles.py``), SPAI's levels as sparse products against the
level merge they replaced, the join store's reuse across densification
rounds against dropping it every round, the exact pruning of rounds 2+
against scoring every candidate, and the tracemalloc peak of one
``proposed`` run against the peak recorded before the ball tables.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.append(str(REPO_ROOT / "tests"))  # the per-edge loop oracle

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import repro
import repro.core.sparsifier as sparsifier_module
import repro.linalg.spai as spai_module
from repro.core import (
    ApproxRanker,
    SimilarityMarker,
    tree_truncated_trace_reduction,
)
from repro.core.ball_join import JoinStore
from repro.graph import make_case, regularization_shift, regularized_laplacian
from repro.linalg import cholesky, pcg, sparse_approximate_inverse
from repro.powergrid import make_pg_case
from repro.tree import RootedForest, batch_tree_resistances, mewst
from repro.utils.reporting import Table

import oracles
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
    benchmark(lambda: cholesky(laplacian_t))


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
    return ApproxRanker(graph, tree, factor, Z, beta=5).score_batch(subset)


def _best_interleaved(fns, repeats):
    """Results and best wall-clocks of *fns*, run in turn *repeats* times."""
    best = [np.inf] * len(fns)
    results = [None] * len(fns)
    for _ in range(repeats):
        for k, fn in enumerate(fns):
            start = time.perf_counter()
            results[k] = fn()
            best[k] = min(best[k], time.perf_counter() - start)
    return results, best


def _best_of(fn, repeats=2):
    """Best wall-clock of *repeats* runs (dampens scheduler noise)."""
    (result,), (best,) = _best_interleaved([fn], repeats)
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

#: Timed runs of each side of the gate, alternating.  A batched run
#: takes tens of milliseconds and reads up to 1.6x apart from run to
#: run, the per-edge loop under a second and within 7%, so the gate
#: takes the best of several runs that sample the same host state.
_RANKING_REPEATS = 7


def test_ranking_batched_vs_serial_report(ranking_setting):
    """Time the three paths, emit the comparison, gate the speedup."""
    graph, tree, factor, Z, subset = ranking_setting

    (serial_scores, batched_scores), (serial_seconds, batched_seconds) = (
        _best_interleaved([
            lambda: _rank_serial_per_edge(graph, tree, factor, Z, subset),
            lambda: _rank_batched(graph, tree, factor, Z, subset),
        ], _RANKING_REPEATS))
    reference_scores, reference_seconds = _best_of(
        lambda: _rank_reference_whole_batch(graph, tree, factor, Z, subset)
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


# ----------------------------------------------------------------------
# The shared set-up (Sec. 3.2) every method starts from: MEWST, the
# rooted forest, its Euler intervals and the LCAs / tree resistances of
# all off-tree edges — array code against the loop oracles it replaced.
# ----------------------------------------------------------------------

#: Gate on the array set-up's speedup over the loops: about half of the
#: median 9.9x (five runs: 9.4x-13.4x) measured on full NLR on a 2-core
#: x86 host when the array path landed.
_SETUP_SPEEDUP_GATE = 5.0


def _setup(graph, mewst_fn, forest_cls, resistances_fn):
    """Every set-up output by name, floats as their raw int64 bits."""
    forest = forest_cls(graph, mewst_fn(graph))
    tin, tout = forest.euler_intervals()
    off = np.flatnonzero(~forest.tree_edge_mask())
    resistances, lcas = resistances_fn(forest, graph.u[off], graph.v[off])
    outputs = {name: getattr(forest, name) for name in (
        "edge_ids", "component_labels", "roots", "parent", "parent_edge",
        "depth")}
    outputs.update(rdist=forest.rdist.view(np.int64), tin=tin, tout=tout,
                   resistances=resistances.view(np.int64), lcas=lcas)
    return outputs


def test_setup_array_vs_loop_report(scale):
    """Time both set-ups on full NLR, require equal bits, gate the speedup."""
    graph, _ = make_case("NLR", scale=max(scale, 1.0), seed=0)
    graph.adjacency()  # both paths read the cached CSR
    arrays, array_seconds = _best_of(lambda: _setup(
        graph, mewst, RootedForest, batch_tree_resistances))
    loops, loop_seconds = _best_of(lambda: _setup(
        graph, oracles.mewst, oracles.RootedForest,
        oracles.tree_resistances))
    for name, ours in arrays.items():
        np.testing.assert_array_equal(ours, loops[name], err_msg=name)

    speedup = loop_seconds / array_seconds
    table = Table(["path", "nodes", "off-tree LCAs", "seconds"])
    for label, seconds in (("loop oracles", loop_seconds),
                           ("array set-up", array_seconds)):
        table.add_row([label, graph.n, len(arrays["lcas"]),
                       f"{seconds:.3f}"])
    emit(
        "kernels_setup_array_vs_loops",
        table.render() + f"\nheight {arrays['depth'].max()}; "
        f"{speedup:.1f}x faster, bit-identical",
    )
    assert speedup >= _SETUP_SPEEDUP_GATE, (
        f"array set-up only {speedup:.1f}x faster than the loops "
        f"(gate {_SETUP_SPEEDUP_GATE:.0f}x)"
    )


# ----------------------------------------------------------------------
# Join reuse across densification rounds: rounds 2-5 of `proposed` on
# full NLR, once with the join store carried from round to round and
# once with it dropped before every round (a monkeypatch, not an option).
# ----------------------------------------------------------------------

#: Gate on the speedup of rounds 2-5 from carrying the join store over:
#: under half the margin of the median 1.53x (five best-of-2 runs:
#: 1.40x-1.59x) measured on full NLR at seed 0 on a 2-core x86 host.
_REUSE_SPEEDUP_GATE = 1.2

#: Most candidates a round may regrow joins for; 15-27% were measured
#: at seeds 0, 1 and 2.
_REUSE_REBUILT_GATE = 0.35


def _rounds_with_joins(graph, monkeypatch, drop):
    """Run ``proposed``; return rounds 2-5's seconds, scores, rebuilt share.

    A pruned round scores its candidates in several ``score_batch``
    calls; each round's scores are gathered in edge-id order.
    """
    scores, rebuilt = [], []
    retain, score = JoinStore.retain, ApproxRanker.score_batch

    def tracked_retain(store, adjacency, edge_ids, beta):
        if drop:
            store.reset(None)
        missing = retain(store, adjacency, edge_ids, beta)
        rebuilt.append(len(missing) / max(len(edge_ids), 1))
        scores.append([])  # one retain per general round
        return missing

    def tracked_score(ranker, edge_ids):
        result = score(ranker, edge_ids)
        scores[-1].append((edge_ids, result))
        return result

    with monkeypatch.context() as patch:
        patch.setattr(JoinStore, "retain", tracked_retain)
        patch.setattr(ApproxRanker, "score_batch", tracked_score)
        result = repro.sparsify(graph, "proposed")
    seconds = sum(entry["seconds"] for entry in result.rounds_log[1:])
    by_round = []
    for calls in scores:
        edge_ids, values = (np.concatenate(part) for part in zip(*calls))
        order = np.argsort(edge_ids)
        by_round.append((edge_ids[order], values[order].view(np.int64)))
    return seconds, by_round, rebuilt


def test_join_reuse_report(scale, monkeypatch):
    """Rounds 2-5 with and without the store: same bits, gate the speedup."""
    graph, _ = make_case("NLR", scale=max(scale, 1.0), seed=0)
    runs = {"store dropped": [], "store carried": []}
    for _ in range(2):
        for label in runs:
            runs[label].append(_rounds_with_joins(
                graph, monkeypatch, drop=label == "store dropped"))
    (_, dropped_scores, _), (_, carried_scores, rebuilt) = (
        runs["store dropped"][0], runs["store carried"][0])
    assert len(carried_scores) == len(dropped_scores) == 4
    for (our_ids, ours), (their_ids, theirs) in zip(carried_scores,
                                                    dropped_scores):
        np.testing.assert_array_equal(our_ids, their_ids)
        np.testing.assert_array_equal(ours, theirs)
    best = {label: min(run[0] for run in r) for label, r in runs.items()}
    speedup = best["store dropped"] / best["store carried"]
    table = Table(["rounds 2-5", "seconds (best of 2)", "rebuilt joins"])
    table.add_row(["store dropped", f"{best['store dropped']:.3f}",
                   "100% each round"])
    table.add_row(["store carried", f"{best['store carried']:.3f}",
                   " / ".join(f"{share:.1%}" for share in rebuilt)])
    emit(
        "kernels_join_reuse",
        table.render() + f"\nn = {graph.n} nodes; {speedup:.2f}x faster "
        "with the store carried over, bit-identical scores",
    )
    assert max(rebuilt) <= _REUSE_REBUILT_GATE, (
        f"a round regrew {max(rebuilt):.1%} of its joins "
        f"(gate {_REUSE_REBUILT_GATE:.0%})"
    )
    assert speedup >= _REUSE_SPEEDUP_GATE, (
        f"carrying the join store over made rounds 2-5 only "
        f"{speedup:.2f}x faster (gate {_REUSE_SPEEDUP_GATE:.1f}x)"
    )


# ----------------------------------------------------------------------
# Exact pruning of rounds 2+: rounds 2-5 of `proposed` on full NLR,
# once as shipped and once with every bound patched to +inf, which
# scores every candidate as before pruning (a monkeypatch, not an
# option).
# ----------------------------------------------------------------------

#: Gate on the speedup of rounds 2-5 from pruning: under half the margin
#: of the median 1.59x (five best-of-2 runs: 1.33x-1.80x) measured on
#: full NLR at seed 0 on a 2-core x86 host.
_PRUNE_SPEEDUP_GATE = 1.25

#: Most of rounds 2-5's candidates they may score together; 27.3% were
#: measured at seed 0 and 25.8% at seeds 1 and 2.
_PRUNE_SCORED_GATE = 0.35


def _rounds_pruned(graph, monkeypatch, unbounded):
    """Run ``proposed``; return it, rounds 2-5's seconds and scored counts."""
    scored = []
    reuse, score = ApproxRanker.reuse_joins, ApproxRanker.score_batch

    def tracked_reuse(ranker, joins, edge_ids):
        scored.append(0)  # one reuse_joins per general round
        return reuse(ranker, joins, edge_ids)

    def tracked_score(ranker, edge_ids):
        scored[-1] += len(edge_ids)
        return score(ranker, edge_ids)

    with monkeypatch.context() as patch:
        patch.setattr(ApproxRanker, "reuse_joins", tracked_reuse)
        patch.setattr(ApproxRanker, "score_batch", tracked_score)
        if unbounded:
            patch.setattr(ApproxRanker, "score_bounds",
                          lambda ranker, edge_ids: np.full(len(edge_ids),
                                                           np.inf))
        result = repro.sparsify(graph, "proposed")
    seconds = sum(entry["seconds"] for entry in result.rounds_log[1:])
    return result, seconds, scored


def test_pruned_scoring_report(scale, monkeypatch):
    """Rounds 2-5 pruned and unpruned: same picks, gate share and speedup."""
    graph, _ = make_case("NLR", scale=max(scale, 1.0), seed=0)
    runs = {"every candidate": [], "pruned": []}
    for _ in range(2):
        for label in runs:
            runs[label].append(_rounds_pruned(
                graph, monkeypatch, unbounded=label == "every candidate"))
    (full, _, _), (pruned, _, scored) = (runs["every candidate"][0],
                                         runs["pruned"][0])
    np.testing.assert_array_equal(pruned.recovered_edge_ids,
                                  full.recovered_edge_ids)
    assert ([entry["trace_reduction"] for entry in pruned.rounds_log]
            == [entry["trace_reduction"] for entry in full.rounds_log])
    candidates = [entry["candidates"] for entry in pruned.rounds_log[1:]]
    share = sum(scored) / sum(candidates)
    best = {label: min(run[1] for run in r) for label, r in runs.items()}
    speedup = best["every candidate"] / best["pruned"]
    table = Table(["rounds 2-5", "seconds (best of 2)", "scored per round"])
    table.add_row(["every candidate", f"{best['every candidate']:.3f}",
                   "100% each round"])
    table.add_row(["pruned", f"{best['pruned']:.3f}", " / ".join(
        f"{count}/{total}" for count, total in zip(scored, candidates))])
    emit(
        "kernels_pruned_scoring",
        table.render() + f"\nn = {graph.n} nodes; {share:.1%} of the "
        f"candidates scored; {speedup:.2f}x faster pruned, same picks",
    )
    assert share <= _PRUNE_SCORED_GATE, (
        f"rounds 2-5 scored {share:.1%} of their candidates "
        f"(gate {_PRUNE_SCORED_GATE:.0%})"
    )
    assert speedup >= _PRUNE_SPEEDUP_GATE, (
        f"pruning made rounds 2-5 only {speedup:.2f}x faster "
        f"(gate {_PRUNE_SPEEDUP_GATE:.2f}x)"
    )


# ----------------------------------------------------------------------
# SPAI (Algorithm 1) by dependency level against the column loop, on the
# four factors a `proposed` run on the full thupg1t power grid builds.
# Most of their pruned columns fall under the log n floor there, which
# the level code fills with one segmented top-k per level.
# ----------------------------------------------------------------------

#: Gate on level-scheduled SPAI's speedup over the column loop: about
#: two thirds of the median 11.2x (six runs: 9.6x-11.9x) measured on the
#: four factors of full thupg1t on a 2-core x86 host.  Filling the floor
#: column by column measured 5.2x-6.5x there, so the gate also catches
#: a return of that loop.
_SPAI_SPEEDUP_GATE = 7.5

#: Timed runs of each side of the gate, alternating.
_SPAI_REPEATS = 5


def _proposed_factors(graph, monkeypatch):
    """The Cholesky factors SPAI receives in a ``proposed`` run."""
    factors = []

    def spy(L, delta, keep_threshold=None):
        factors.append(L)
        return sparse_approximate_inverse(L, delta, keep_threshold)

    with monkeypatch.context() as patch:
        patch.setattr(sparsifier_module, "sparse_approximate_inverse", spy)
        repro.sparsify(graph, "proposed", edge_fraction=0.10, rounds=5)
    return factors


def _floor_counts(L, delta, monkeypatch):
    """Columns under the keep-threshold floor, and those among them whose
    k-th and (k+1)-th largest entries tie."""
    counts = [0, 0]
    prune = spai_module._prune

    def spy(sums, ptr, delta, keep_threshold):
        sizes = np.diff(ptr)
        starts = ptr[:-1]
        owner = np.repeat(np.arange(len(sizes)), sizes)
        top = np.maximum.reduceat(sums, starts)
        over = np.bincount(owner[sums >= delta * top[owner]],
                           minlength=len(sizes))
        short = np.flatnonzero((sizes > keep_threshold)
                               & (over < keep_threshold))
        ranked = sums[np.lexsort((-sums, owner))]
        kth = starts[short] + keep_threshold - 1
        counts[0] += len(short)
        counts[1] += np.count_nonzero(ranked[kth] == ranked[kth + 1])
        return prune(sums, ptr, delta, keep_threshold)

    with monkeypatch.context() as patch:
        patch.setattr(spai_module, "_prune", spy)
        sparse_approximate_inverse(L, delta)
    return counts


def test_spai_report(scale, monkeypatch):
    """Both SPAIs on full thupg1t's factors: same bits, gate the speedup."""
    netlist, _ = make_pg_case("thupg1t", scale=max(scale, 1.0), seed=0)
    factors = _proposed_factors(netlist.graph, monkeypatch)
    assert len(factors) == 4
    delta = repro.SparsifierConfig().delta
    (levels, loops), (level_seconds, loop_seconds) = _best_interleaved([
        lambda: [sparse_approximate_inverse(L, delta) for L in factors],
        lambda: [oracles.sparse_approximate_inverse(L, delta)
                 for L in factors],
    ], _SPAI_REPEATS)
    table = Table(["factor", "columns", "nnz(Z~)", "floor columns",
                   "tied at the floor"])
    for k, (ours, theirs, L) in enumerate(zip(levels, loops, factors)):
        np.testing.assert_array_equal(ours.indptr, theirs.indptr)
        np.testing.assert_array_equal(ours.indices, theirs.indices)
        np.testing.assert_array_equal(ours.data.view(np.int64),
                                      theirs.data.view(np.int64))
        short, tied = _floor_counts(L, delta, monkeypatch)
        table.add_row([k + 1, L.shape[0], ours.nnz, short, tied])
    speedup = loop_seconds / level_seconds
    emit(
        "kernels_spai_levels_vs_loop",
        table.render() + f"\ncolumn loop {loop_seconds:.3f} s, levels "
        f"{level_seconds:.3f} s (best of {_SPAI_REPEATS}); "
        f"{speedup:.1f}x faster, bit-identical",
    )
    assert speedup >= _SPAI_SPEEDUP_GATE, (
        f"level-scheduled SPAI only {speedup:.1f}x faster than the column "
        f"loop (gate {_SPAI_SPEEDUP_GATE:.1f}x)"
    )


# ----------------------------------------------------------------------
# SPAI's levels as sparse products against the level merge they replaced
# (tests/oracles.py level_merge_spai), on the four factors a `proposed`
# run on full NLR builds.
# ----------------------------------------------------------------------

#: Gate on product SPAI's speedup over the level merge: about two thirds
#: of the median 1.67x (four runs: 1.62x-1.80x) measured on full NLR's
#: four factors on a 2-core x86 host.
_SPAI_PRODUCT_SPEEDUP_GATE = 1.1

#: Timed runs of each side of the gate, alternating.
_SPAI_PRODUCT_REPEATS = 7


def test_spai_product_report(scale, monkeypatch):
    """Product and level-merge SPAI on full NLR's factors: same bits,
    gate the speedup."""
    graph, _ = make_case("NLR", scale=max(scale, 1.0), seed=0)
    factors = _proposed_factors(graph, monkeypatch)
    assert len(factors) == 4
    delta = repro.SparsifierConfig().delta
    (products, merges), (product_seconds, merge_seconds) = (
        _best_interleaved([
            lambda: [sparse_approximate_inverse(L, delta) for L in factors],
            lambda: [oracles.level_merge_spai(L, delta) for L in factors],
        ], _SPAI_PRODUCT_REPEATS))
    table = Table(["factor", "columns", "levels", "nnz(Z~)"])
    for k, (ours, theirs, L) in enumerate(zip(products, merges, factors)):
        for name in ("indptr", "indices"):
            assert getattr(ours, name).dtype == getattr(theirs, name).dtype
            np.testing.assert_array_equal(getattr(ours, name),
                                          getattr(theirs, name))
        np.testing.assert_array_equal(ours.data.view(np.int64),
                                      theirs.data.view(np.int64))
        column = np.repeat(np.arange(L.shape[0]), np.diff(L.indptr))
        below = L.indices != column
        levels = spai_module.dependency_levels(
            L.shape[0], column[below], L.indices[below].astype(np.int64))
        table.add_row([k + 1, L.shape[0], int(levels.max()) + 1, ours.nnz])
    speedup = merge_seconds / product_seconds
    emit(
        "kernels_spai_products_vs_merge",
        table.render() + f"\nlevel merge {merge_seconds:.3f} s, products "
        f"{product_seconds:.3f} s (best of {_SPAI_PRODUCT_REPEATS}); "
        f"{speedup:.2f}x faster, bit-identical",
    )
    assert speedup >= _SPAI_PRODUCT_SPEEDUP_GATE, (
        f"product SPAI only {speedup:.2f}x faster than the level merge "
        f"(gate {_SPAI_PRODUCT_SPEEDUP_GATE:.1f}x)"
    )


# ----------------------------------------------------------------------
# Similarity marking in batches: feGRASS's single walk on full NLR, its
# stretch scores over the MEWST, once through the production walk and
# once through the per-pick oracle (two Python BFS balls per pick).
# ----------------------------------------------------------------------

#: Gate on the batched walk's speedup over the per-pick walk: about
#: three quarters of the median 3.4x (four runs: 3.2x-3.9x) measured on
#: full NLR at seed 0 on a 2-core x86 host.
_MARKING_SPEEDUP_GATE = 2.5

#: Timed runs of each side of the gate, alternating.
_MARKING_REPEATS = 5


def _walk(graph, forest, candidates, scores, budget, marker_cls, pick):
    """One picking walk; returns the picks, their gains and the marks."""
    marker = marker_cls(graph, gamma=repro.FegrassConfig().gamma)
    marker.attach_subgraph(forest.tree)
    chosen, gains = pick(sparsifier_module._ranked(candidates, scores),
                         marker, budget, True)
    return chosen, gains, marker.marked


def test_marking_report(scale):
    """Both walks over feGRASS's scores: same picks and marks, gate the
    speedup."""
    graph, _ = make_case("NLR", scale=max(scale, 1.0), seed=0)
    forest = RootedForest(graph, mewst(graph))
    candidates = np.flatnonzero(~forest.tree_edge_mask())
    resistances, _ = batch_tree_resistances(
        forest, graph.u[candidates], graph.v[candidates])
    scores = graph.w[candidates] * resistances
    budget = int(round(repro.FegrassConfig().edge_fraction * graph.n))
    graph.adjacency(), forest.tree.adjacency()  # both walks read the CSRs
    (ours, theirs), (batched_seconds, per_pick_seconds) = _best_interleaved([
        lambda: _walk(graph, forest, candidates, scores, budget,
                      SimilarityMarker, sparsifier_module._pick_edges),
        lambda: _walk(graph, forest, candidates, scores, budget,
                      oracles.PerPickMarker, oracles.pick_edges),
    ], _MARKING_REPEATS)
    chosen, gains, marked = ours
    assert chosen == theirs[0] and len(chosen) == budget
    assert gains == theirs[1]
    np.testing.assert_array_equal(marked, theirs[2])
    # Both walks stop at their last pick.
    walked = 1 + int(np.flatnonzero(
        candidates[np.argsort(-scores, kind="stable")] == chosen[-1])[0])
    speedup = per_pick_seconds / batched_seconds
    table = Table(["walk", "picks", "walked", "marked", "seconds"])
    for label, (picks, _, marks), seconds in (
            ("per pick (oracle)", theirs, per_pick_seconds),
            ("batched", ours, batched_seconds)):
        table.add_row([label, len(picks), walked, int(marks.sum()),
                       f"{seconds:.4f}"])
    emit(
        "kernels_marking_batched_vs_per_pick",
        table.render() + f"\nn = {graph.n} nodes; best of "
        f"{_MARKING_REPEATS}; {speedup:.1f}x faster, same picks and marks",
    )
    assert speedup >= _MARKING_SPEEDUP_GATE, (
        f"batched marking only {speedup:.1f}x faster than marking per pick "
        f"(gate {_MARKING_SPEEDUP_GATE:.1f}x)"
    )


# ----------------------------------------------------------------------
# Memory: the tracemalloc peak of one `proposed` run, phase by phase, on
# full NLR and on ba_social at 0.25 — a deterministic stand-in for the
# process's peak RSS, which spreads by about 14% from run to run.
# ----------------------------------------------------------------------

#: Peak MB of one ``proposed`` run at the commit before the ball tables
#: and product SPAI (6983c76), as this test measures it on a 2-core x86
#: host: NLR's was set by SPAI in round 5, ba_social's by the walk.
_MEMORY_BASELINES = {("NLR", 1.0): 35.85, ("ba_social", 0.25): 12.17}

#: Most a run's peak may exceed its baseline by.
_MEMORY_SLACK = 1.05


def _phase_peaks(graph, monkeypatch):
    """The tracemalloc peak of each phase of one ``proposed`` run, MB.

    Round 1, and in every general round the factorization, SPAI and the
    join regrowth, are the calls they name; everything between them
    (subgraphs, scoring and the walk) is ``other``.
    """
    peaks = {}
    open_phase = ["other"]

    def close(name):
        peak = tracemalloc.get_traced_memory()[1] / 1e6
        peaks[name] = max(peaks.get(name, 0.0), peak)
        tracemalloc.reset_peak()

    def phase(name, fn):
        def timed(*args, **kwargs):
            close(open_phase[0])
            open_phase[0] = name
            try:
                return fn(*args, **kwargs)
            finally:
                close(name)
                open_phase[0] = "other"
        return timed

    with monkeypatch.context() as patch:
        for module, name, label in (
                (sparsifier_module, "tree_truncated_trace_reduction",
                 "round 1"),
                (sparsifier_module, "cholesky", "factorization"),
                (sparsifier_module, "sparse_approximate_inverse", "SPAI"),
                (ApproxRanker, "reuse_joins", "regrowth")):
            patch.setattr(module, name, phase(label, getattr(module, name)))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            repro.sparsify(graph, "proposed")
            close("other")
        finally:
            tracemalloc.stop()
    return peaks


def test_memory_peaks_report(monkeypatch):
    """Phase peaks of one run per case; gate each run's peak."""
    runs = {}
    for case, scale in _MEMORY_BASELINES:
        graph, _ = make_case(case, scale=scale, seed=0)
        runs[case, scale] = _phase_peaks(graph, monkeypatch)
    names = list(next(iter(runs.values())))
    table = Table(["case", *names, "peak", "baseline"])
    for key, peaks in runs.items():
        table.add_row([f"{key[0]} {key[1]}", *(f"{peaks[name]:.2f}"
                                                for name in names),
                       f"{max(peaks.values()):.2f}",
                       f"{_MEMORY_BASELINES[key]:.2f}"])
    emit("kernels_memory_peaks",
         table.render() + "\ntracemalloc peak MB of one proposed run, by "
         f"phase; gate {_MEMORY_SLACK:.2f}x the baseline")
    for key, peaks in runs.items():
        assert max(peaks.values()) <= _MEMORY_BASELINES[key] * _MEMORY_SLACK, (
            f"{key[0]} {key[1]}: peak {max(peaks.values()):.2f} MB over "
            f"{_MEMORY_SLACK:.2f}x the {_MEMORY_BASELINES[key]:.2f} MB "
            "baseline")


def test_pcg_tree_preconditioned(benchmark, setting):
    graph, laplacian_g, _, _, _, factor, _ = setting
    rng = np.random.default_rng(0)
    rhs = rng.standard_normal(graph.n)
    result = benchmark(
        lambda: pcg(laplacian_g, rhs, M_solve=factor.solve, rtol=1e-3)
    )
    assert result.converged
