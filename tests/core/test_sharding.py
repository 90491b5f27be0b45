"""Shard-parallel pipeline: partition, stitch quality, determinism."""

import numpy as np
import pytest

from repro.api import RunRecord, SparsifierSession, list_methods, sparsify
from repro.core import (
    ShardPlan,
    evaluate_sparsifier,
    induced_subgraph,
    partition_shards,
    select_boundary_edges,
    sharded_sparsify,
    trace_reduction_sparsify,
)
from repro.core.parallel import parallel_map
from repro.exceptions import GraphError
from repro.graph import Graph, grid2d, is_connected, make_case

pytestmark = pytest.mark.filterwarnings(
    # A sandboxed runner may lose the fork pool; results are identical.
    "ignore::RuntimeWarning"
)


@pytest.fixture(scope="module")
def grid():
    return grid2d(24, 24, weights="uniform", seed=5)


# ---------------------------------------------------------------------
# partitioning
# ---------------------------------------------------------------------
@pytest.mark.parametrize("shards", [1, 2, 3, 4, 7])
def test_partition_covers_every_node(grid, shards):
    plan = partition_shards(grid, shards, seed=0)
    assert plan.shards == shards
    assert sorted(plan.labels.tolist()) == sorted(
        label for s in range(shards) for label in [s] * len(plan.shard_nodes[s])
    )
    covered = np.concatenate(plan.shard_nodes)
    assert sorted(covered.tolist()) == list(range(grid.n))
    for nodes in plan.shard_nodes:
        assert len(nodes) > 0


def test_partition_is_deterministic(grid):
    a = partition_shards(grid, 4, seed=0)
    b = partition_shards(grid, 4, seed=0)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_partition_is_roughly_balanced(grid):
    plan = partition_shards(grid, 4, seed=0)
    sizes = [len(nodes) for nodes in plan.shard_nodes]
    assert max(sizes) <= 2 * min(sizes)


def test_partition_rejects_bad_shard_counts(grid):
    with pytest.raises(GraphError):
        partition_shards(grid, 0)
    with pytest.raises(GraphError):
        partition_shards(grid, grid.n + 1)


def test_partition_packs_whole_components(forest_graph):
    """A disconnected block is split along component boundaries."""
    plan = partition_shards(forest_graph, 2, seed=0)
    labels = plan.labels
    # The two components {0,1,2} and {3,4,5} must not be cut.
    assert len(set(labels[:3].tolist())) == 1
    assert len(set(labels[3:].tolist())) == 1
    assert len(plan.boundary_edge_ids) == 0


def test_partition_labels_cached_in_session_store(grid):
    from repro.core import ArtifactStore

    store = ArtifactStore()
    partition_shards(grid, 4, seed=0, artifacts=store)
    partition_shards(grid, 4, seed=0, artifacts=store)
    assert store.hits["shard_labels"] == 1


def test_induced_subgraph_maps_back(grid):
    nodes = np.arange(0, grid.n, 2)
    sub, edge_ids = induced_subgraph(grid, nodes)
    assert sub.n == len(nodes)
    np.testing.assert_array_equal(nodes[sub.u], grid.u[edge_ids])
    np.testing.assert_array_equal(nodes[sub.v], grid.v[edge_ids])
    np.testing.assert_array_equal(sub.w, grid.w[edge_ids])


def test_shard_plan_summary_is_json_native(grid):
    import json

    plan = partition_shards(grid, 3, seed=0)
    summary = plan.summary()
    assert json.loads(json.dumps(summary)) == summary
    assert summary["shards"] == 3
    assert sum(summary["shard_nodes"]) == grid.n


def test_shard_plan_rejects_bad_labels(grid):
    with pytest.raises(GraphError):
        ShardPlan(grid, np.zeros(grid.n - 1, dtype=np.int64), 1)
    with pytest.raises(GraphError):
        # Shard 1 empty.
        ShardPlan(grid, np.zeros(grid.n, dtype=np.int64), 2)
    # Out-of-range labels would make edges vanish from the stitch.
    stray = np.zeros(grid.n, dtype=np.int64)
    stray[0] = 1
    stray[1] = 5
    with pytest.raises(GraphError, match=r"\[0, 2\)"):
        ShardPlan(grid, stray, 2)
    with pytest.raises(GraphError):
        ShardPlan(grid, stray - 1, 2)


# ---------------------------------------------------------------------
# sharded sparsification: identity, determinism, validity
# ---------------------------------------------------------------------
def test_shards_one_is_bit_identical_to_unsharded(grid):
    sharded = sparsify(grid, "proposed", edge_fraction=0.1, rounds=2,
                       shards=1)
    legacy = trace_reduction_sparsify(grid, edge_fraction=0.1, rounds=2)
    np.testing.assert_array_equal(sharded.edge_mask, legacy.edge_mask)
    assert sharded.sharding is None


@pytest.mark.parametrize("method", sorted(list_methods()))
def test_every_method_runs_sharded(grid, method):
    result = sparsify(grid, method, edge_fraction=0.1, shards=2)
    assert result.sharding["shards"] == 2
    assert result.edge_count > 0
    assert is_connected(result.sparsifier)


def test_sharded_output_is_deterministic(grid):
    runs = [
        sparsify(grid, "proposed", edge_fraction=0.1, rounds=2, shards=4)
        for _ in range(2)
    ]
    np.testing.assert_array_equal(runs[0].edge_mask, runs[1].edge_mask)
    np.testing.assert_array_equal(
        runs[0].recovered_edge_ids, runs[1].recovered_edge_ids
    )


def test_sharded_output_independent_of_workers(grid):
    serial = sparsify(grid, "proposed", edge_fraction=0.1, rounds=2,
                      shards=4, workers=1)
    pooled = sparsify(grid, "proposed", edge_fraction=0.1, rounds=2,
                      shards=4, workers=2)
    np.testing.assert_array_equal(serial.edge_mask, pooled.edge_mask)


def test_sharded_keep_policy_retains_every_cut_edge(grid):
    result = sparsify(grid, "proposed", edge_fraction=0.1, rounds=2,
                      shards=4)
    plan = partition_shards(grid, 4, seed=0)
    assert result.edge_mask[plan.boundary_edge_ids].all()
    cut = result.sharding["cut"]
    assert cut["kept_edges"] == cut["edges"] == len(plan.boundary_edge_ids)


def test_sharded_rounds_log_tags_shards(grid):
    result = sparsify(grid, "proposed", edge_fraction=0.1, rounds=2,
                      shards=3)
    shards_seen = {entry["shard"] for entry in result.rounds_log}
    assert shards_seen == {0, 1, 2}
    per_shard = result.sharding["per_shard"]
    assert [entry["shard"] for entry in per_shard] == [0, 1, 2]
    assert sum(entry["nodes"] for entry in per_shard) == grid.n


def test_sharded_tree_and_recovered_ids_are_kept_edges(grid):
    result = sparsify(grid, "proposed", edge_fraction=0.1, rounds=2,
                      shards=4)
    assert result.edge_mask[result.tree_edge_ids].all()
    assert result.edge_mask[result.recovered_edge_ids].all()
    # Tree/recovered edges are intra-shard by construction.
    plan = partition_shards(grid, 4, seed=0)
    labels = plan.labels
    for ids in (result.tree_edge_ids, result.recovered_edge_ids):
        np.testing.assert_array_equal(
            labels[result.graph.u[ids]], labels[result.graph.v[ids]]
        )


def test_sharded_run_on_disconnected_graph(forest_graph):
    result = sparsify(forest_graph, "proposed", edge_fraction=0.5,
                      shards=2)
    assert result.edge_count > 0


def test_too_many_shards_raise(grid):
    with pytest.raises(GraphError):
        sparsify(grid, "proposed", shards=grid.n + 1)


def test_boundary_policy_validated(grid):
    with pytest.raises(GraphError):
        sparsify(grid, "proposed", shards=2, boundary_policy="nope")
    with pytest.raises(GraphError):
        sparsify(grid, "proposed", shards=0)


# ---------------------------------------------------------------------
# boundary sampling
# ---------------------------------------------------------------------
def test_sample_policy_is_subset_and_connected(grid):
    kept_all = sparsify(grid, "proposed", edge_fraction=0.1, rounds=2,
                        shards=4)
    sampled = sparsify(grid, "proposed", edge_fraction=0.1, rounds=2,
                       shards=4, boundary_policy="sample")
    cut_all = kept_all.sharding["cut"]
    cut_sampled = sampled.sharding["cut"]
    assert cut_sampled["kept_edges"] < cut_all["kept_edges"]
    assert cut_sampled["kept_weight"] <= cut_all["kept_weight"]
    assert is_connected(sampled.sparsifier)


def test_sample_policy_deterministic(grid):
    plan = partition_shards(grid, 4, seed=0)
    a = select_boundary_edges(grid, plan, "sample", 0.1, seed=3)
    b = select_boundary_edges(grid, plan, "sample", 0.1, seed=3)
    np.testing.assert_array_equal(a, b)
    kept = select_boundary_edges(grid, plan, "keep", 0.1, seed=3)
    np.testing.assert_array_equal(kept, plan.boundary_edge_ids)
    assert set(a.tolist()) <= set(kept.tolist())


def test_sample_backbone_spans_stranded_components():
    """A shard component attached only through the cut must stay
    attached: the backbone works per component, not per shard."""
    # Two "columns" (shards) of two nodes each; the right column is
    # internally disconnected and hangs off the left one by two weak
    # cut edges — both must survive any sampling.
    graph = Graph.from_edges(4, [
        (0, 1, 10.0),   # left column (one component)
        (0, 2, 0.1),    # cut edge to right node 2
        (1, 3, 0.1),    # cut edge to right node 3
    ])
    labels = np.array([0, 0, 1, 1])
    plan = ShardPlan(graph, labels, 2)
    kept = select_boundary_edges(graph, plan, "sample", 0.0, seed=0)
    assert set(kept.tolist()) == {1, 2}


# ---------------------------------------------------------------------
# stitch quality
# ---------------------------------------------------------------------
@pytest.mark.parametrize("case", ["ecology2", "tmt_sym"])
def test_sharded_kappa_within_bounded_factor(case):
    graph, _ = make_case(case, scale=0.06, seed=0)
    baseline = sparsify(graph, "proposed", edge_fraction=0.1, rounds=2)
    sharded = sparsify(graph, "proposed", edge_fraction=0.1, rounds=2,
                       shards=4)
    kappa_base = evaluate_sparsifier(
        graph, baseline.sparsifier, seed=1
    ).kappa
    kappa_shard = evaluate_sparsifier(
        graph, sharded.sparsifier, seed=1
    ).kappa
    # "keep" retains the whole cut, so the stitched sparsifier must be
    # in the same quality regime as the monolithic run.
    assert kappa_shard <= 3.0 * kappa_base
    sampled = sparsify(graph, "proposed", edge_fraction=0.1, rounds=2,
                       shards=4, boundary_policy="sample")
    kappa_sampled = evaluate_sparsifier(
        graph, sampled.sparsifier, seed=1
    ).kappa
    # The sampled cut trades quality for size; it must stay bounded.
    assert np.isfinite(kappa_sampled)
    assert kappa_sampled <= 50.0 * kappa_base


# ---------------------------------------------------------------------
# records, sessions, restore split
# ---------------------------------------------------------------------
def test_sharding_block_round_trips_through_json(grid):
    session = SparsifierSession(grid, label="grid24")
    record = session.run("proposed", edge_fraction=0.1, rounds=2, shards=3)
    assert record.sharding["shards"] == 3
    rebuilt = RunRecord.from_json(record.to_json())
    assert rebuilt == record
    assert rebuilt.sharding == record.sharding


def test_fingerprint_strips_shard_timings(grid):
    session = SparsifierSession(grid, label="grid24")
    record = session.run("proposed", edge_fraction=0.1, rounds=2, shards=2,
                         evaluate=False)
    fingerprint = record.fingerprint()

    def no_seconds(value):
        if isinstance(value, dict):
            return all(
                not (k == "seconds" or k.endswith("_seconds"))
                and no_seconds(v)
                for k, v in value.items()
            )
        if isinstance(value, list):
            return all(no_seconds(v) for v in value)
        return True

    assert no_seconds(fingerprint)


def test_sharded_warm_run_matches_cold_fingerprint(grid, tmp_path):
    cold = SparsifierSession(grid, label="grid24", cache_dir=tmp_path)
    warm = SparsifierSession(grid, label="grid24", cache_dir=tmp_path)
    record_cold = cold.run("proposed", edge_fraction=0.1, rounds=2,
                           shards=3, evaluate=False)
    record_warm = warm.run("proposed", edge_fraction=0.1, rounds=2,
                           shards=3, evaluate=False)
    assert record_cold.fingerprint() == record_warm.fingerprint()
    # The warm session pulled the partition labels from disk.
    assert warm.stats()["disk"]["hits"].get("shard_labels", 0) >= 1


def test_restore_seconds_split_out_of_sparsify_seconds(grid, tmp_path):
    cold = SparsifierSession(grid, label="grid24", cache_dir=tmp_path)
    record_cold = cold.run("proposed", edge_fraction=0.1, rounds=2,
                           evaluate=False)
    warm = SparsifierSession(grid, label="grid24", cache_dir=tmp_path)
    record_warm = warm.run("proposed", edge_fraction=0.1, rounds=2,
                           evaluate=False)
    for record in (record_cold, record_warm):
        assert record.timings["restore_seconds"] > 0.0
        assert record.timings["sparsify_seconds"] >= 0.0
    # Session-less runs never touch the disk layer: no restore key.
    bare = RunRecord.from_result(
        trace_reduction_sparsify(grid, edge_fraction=0.1, rounds=2),
        method="proposed",
    )
    assert "restore_seconds" not in bare.timings


def test_shard_artifacts_reused_across_sweep_cells(grid):
    """A serial sweep derives each shard's setup once, not per cell:
    the per-shard sessions are memoized in the parent store and their
    artifact caches go warm from the second cell on."""
    session = SparsifierSession(grid, label="grid24")
    first = session.sparsify("proposed", edge_fraction=0.05, rounds=2,
                             shards=2)
    second = session.sparsify("proposed", edge_fraction=0.10, rounds=2,
                              shards=2)
    stats = session.stats()
    assert stats["hits"].get("shard_session", 0) >= 2
    assert stats["hits"].get("shard_labels", 0) >= 1
    # Reuse never changes results: rerun the second cell cold.
    cold = sparsify(grid, "proposed", edge_fraction=0.10, rounds=2,
                    shards=2)
    np.testing.assert_array_equal(second.edge_mask, cold.edge_mask)
    assert first.edge_count != second.edge_count


def test_memory_only_session_reports_restore_free_timings(grid):
    session = SparsifierSession(grid, label="grid24")
    record = session.run("proposed", edge_fraction=0.1, rounds=2,
                         evaluate=False)
    assert "restore_seconds" not in record.timings
    assert record.timings["sparsify_seconds"] > 0.0


# ---------------------------------------------------------------------
# parallel_map
# ---------------------------------------------------------------------
def test_parallel_map_preserves_order():
    assert parallel_map(lambda i: i * i, 5, workers=1) == [0, 1, 4, 9, 16]
    assert parallel_map(lambda i: i * i, 5, workers=3) == [0, 1, 4, 9, 16]


def test_parallel_map_empty_and_errors():
    assert parallel_map(lambda i: i, 0, workers=4) == []
    with pytest.raises(ValueError):
        parallel_map(lambda i: i, -1)
    with pytest.raises(ValueError):
        parallel_map(lambda i: i, 3, workers=-1)


def _nested_task(index):
    # Module-level so forked workers resolve it; the inner map must not
    # deadlock on pool state inherited from the parent.
    return sum(parallel_map(lambda j: index * j, 3, workers=2))


def test_parallel_map_tasks_may_nest_worker_pools():
    assert parallel_map(_nested_task, 4, workers=2) == [0, 3, 6, 9]


def test_sharded_sparsify_direct_entry(grid):
    """The module-level entry point mirrors the facade routing."""
    via_facade = sparsify(grid, "proposed", edge_fraction=0.1, rounds=2,
                          shards=2)
    direct = sharded_sparsify(grid, "proposed", edge_fraction=0.1,
                              rounds=2, shards=2)
    np.testing.assert_array_equal(via_facade.edge_mask, direct.edge_mask)
    # shards=1 through the direct entry falls back to the plain path.
    one = sharded_sparsify(grid, "proposed", edge_fraction=0.1, rounds=2)
    legacy = trace_reduction_sparsify(grid, edge_fraction=0.1, rounds=2)
    np.testing.assert_array_equal(one.edge_mask, legacy.edge_mask)
