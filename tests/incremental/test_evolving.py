"""Tests for the evolving sparsifier (repro.incremental.evolving)."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components, dijkstra

import oracles
import repro
from repro.api import sparsify as api_sparsify
from repro.api.records import RunRecord
from repro.core.metrics import evaluate_sparsifier
from repro.exceptions import IncrementalError
from repro.graph import grid2d
from repro.incremental import DeltaRecord, EvolvingSparsifier, sparsify_delta
from repro.tree.rooted import RootedForest

OPTIONS = {"edge_fraction": 0.2}


def _evolving(graph, **overrides):
    kwargs = {**OPTIONS, **overrides}
    return EvolvingSparsifier(graph, "proposed", **kwargs)


def _untimed(entry):
    """A delta-log entry without its wall-clock fields."""
    return {k: x for k, x in entry.items() if k not in ("seconds", "phases")}


def _is_spanning_forest(n, pairs):
    """True when *pairs* form a cycle-free cover of all *n* nodes."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False  # cycle
        parent[ru] = rv
    return len(pairs) == n - 1  # spanning (graph is connected)


class TestLifecycle:
    def test_base_build_matches_direct_sparsify(self, small_grid):
        evolving = _evolving(small_grid)
        # The evolving state holds a canonically (u, v)-sorted
        # materialization of the edge map; the direct run must see the
        # same graph object to be fingerprint-comparable.
        direct = RunRecord.from_result(
            api_sparsify(evolving.graph, "proposed", **OPTIONS),
            method="proposed",
        )
        assert evolving.base_record.fingerprint() == direct.fingerprint()

    def test_apply_batch_mutates_graph(self, small_grid):
        evolving = _evolving(small_grid)
        before = small_grid.edge_count
        entry = evolving.apply_batch(inserts=[(0, 27, 1.0)],
                                     deletes=[(0, 1)])
        assert evolving.graph.edge_count == before
        assert (0, 27) in evolving.graph.edge_key_set()
        assert (0, 1) not in evolving.graph.edge_key_set()
        assert entry["inserted"] == 1 and entry["deleted"] == 1
        assert entry["touched_nodes"] >= 3
        assert evolving.record.batches == 1

    def test_delete_then_insert_reweights_in_one_batch(self, small_grid):
        evolving = _evolving(small_grid)
        evolving.apply_batch(inserts=[(0, 1, 9.0)], deletes=[(0, 1)])
        graph = evolving.graph
        assert graph.w[graph.edge_lookup()[(0, 1)]] == 9.0

    def test_rejects_duplicate_insert_and_absent_delete(self, small_grid):
        evolving = _evolving(small_grid)
        with pytest.raises(IncrementalError, match="already exists"):
            evolving.apply_batch(inserts=[(0, 1, 1.0)])
        with pytest.raises(IncrementalError, match="absent edge"):
            evolving.apply_batch(deletes=[(0, 27)])
        # A rejected batch must not modify the graph or the log.
        assert evolving.graph.edge_count == small_grid.edge_count
        assert evolving.record.batches == 0

    def test_rejects_non_incremental_method(self, small_grid):
        with pytest.raises(IncrementalError,
                           match="does not support incremental"):
            EvolvingSparsifier(small_grid, "grass", **OPTIONS)

    def test_rejects_bad_knobs(self, small_grid):
        with pytest.raises(IncrementalError, match="drift_budget"):
            _evolving(small_grid, drift_budget=1.0)
        with pytest.raises(IncrementalError, match="locality_beta"):
            _evolving(small_grid, locality_beta=0)


class TestForestMaintenance:
    def test_forest_survives_tree_edge_deletion(self, small_grid):
        evolving = _evolving(small_grid)
        u, v = evolving.forest_edges[0]
        entry = evolving.apply_batch(deletes=[(u, v)])
        assert (u, v) not in evolving.forest_edges
        assert _is_spanning_forest(small_grid.n, evolving.forest_edges)
        assert entry["forest_replacements"] >= 1 or entry["rebuild"]

    def test_forest_absorbs_inserted_edges_across_deletions(self,
                                                            small_grid):
        evolving = _evolving(small_grid)
        for batch in ([(0, 27, 1.0)], [(5, 40, 2.0)]):
            evolving.apply_batch(inserts=batch)
        pairs = {(u, v) for u, v, _ in
                 [(0, 27, None), (5, 40, None)]}
        evolving.apply_batch(deletes=sorted(pairs))
        assert _is_spanning_forest(small_grid.n, evolving.forest_edges)

    def test_forest_is_always_spanning_under_a_stream(self, medium_grid):
        evolving = _evolving(medium_grid)
        rng = np.random.default_rng(7)
        inserted = []
        for step in range(5):
            u = int(rng.integers(0, medium_grid.n))
            v = int((u + 21 + step) % medium_grid.n)
            if u == v or ((min(u, v), max(u, v))
                          in evolving.graph.edge_key_set()):
                continue
            pair = (min(u, v), max(u, v))
            evolving.apply_batch(inserts=[(pair[0], pair[1], 1.0)])
            inserted.append(pair)
        for pair in inserted[:2]:
            evolving.apply_batch(deletes=[pair])
        assert _is_spanning_forest(medium_grid.n,
                                   evolving.forest_edges)

    def test_delta_path_matches_the_loop_oracle(self):
        """A stream deleting forest edges, replayed on the old loops.

        The oracle keeps the dict edge map, repairs the forest with a
        DSU, maps pairs through ``edge_lookup`` dicts, roots one node at
        a time and answers LCAs with Tarjan's DFS; every entry but its
        timings, the forest and the kept set must match after every
        batch.
        """
        graph = grid2d(10, 10, weights="uniform", seed=3)
        kwargs = {**OPTIONS, "drift_budget": 1e4}
        evolving = EvolvingSparsifier(graph, "proposed", **kwargs)
        rng = np.random.default_rng(11)
        stream, trail = [], []
        for _ in range(14):
            forest = evolving.forest_edges
            deletes = sorted({forest[int(k)] for k in
                              rng.integers(0, len(forest), size=2)})
            inserts = []
            while len(inserts) < 2:
                u, v = sorted(int(x) for x in rng.integers(0, graph.n, 2))
                if u != v and (u, v) not in evolving.graph.edge_key_set() \
                        and all((u, v) != (a, b) for a, b, _ in inserts):
                    inserts.append((u, v, float(rng.choice([0.5, 1.0]))))
            stream.append((inserts, deletes))
            entry = evolving.apply_batch(inserts=inserts, deletes=deletes)
            trail.append((_untimed(entry), evolving.forest_edges,
                          evolving.kept_edges))
        assert sum(entry["forest_replacements"] for entry, _, _ in trail) > 0
        rebuilds = sum(entry["rebuild"] for entry, _, _ in trail)
        assert 0 < rebuilds < len(trail)

        oracle = oracles.OracleEvolvingSparsifier(graph, "proposed", **kwargs)
        for (inserts, deletes), (entry, forest, kept) in zip(stream, trail):
            got = oracle.apply_batch(inserts=inserts, deletes=deletes)
            assert _untimed(got) == entry
            assert oracle.forest_edges == forest
            assert oracle.kept_edges == kept


class _RegionSpy(EvolvingSparsifier):
    """Checks every touched region against the balls of the touched nodes
    in the old and the new graph, one loop-oracle BFS each."""

    def _apply(self, eb, laps):
        self.old_graph = self.graph
        return super()._apply(eb, laps)

    def _touched_region(self, touched):
        region = super()._touched_region(touched)
        np.testing.assert_array_equal(region, oracles.touched_region(
            [self.old_graph, self.graph], touched, self.locality_beta))
        self.sizes.append(len(region))
        return region


class TestTouchedRegion:
    @settings(deadline=None, max_examples=15)
    @given(seed=st.integers(0, 2**16), beta=st.integers(1, 3))
    def test_region_is_the_union_of_old_and_new_balls(self, seed, beta):
        """Random batches of deletions (forest edges among them) and
        insertions: the region is every node within ``beta`` hops of a
        mutated endpoint in the old or the new graph."""
        graph = grid2d(7, 7, weights="uniform", seed=seed % 1000)
        rng = np.random.default_rng(seed)
        evolving = _RegionSpy(graph, "proposed", locality_beta=beta,
                              drift_budget=1e6, **OPTIONS)
        evolving.sizes = []
        for _ in range(4):
            edges = sorted(evolving.graph.edge_key_set())
            deletes = sorted({edges[int(k)] for k in rng.integers(
                0, len(edges), size=rng.integers(0, 4))})
            inserts, count = [], rng.integers(1, 4)
            while len(inserts) < count:
                u, v = sorted(int(x) for x in rng.integers(0, graph.n, 2))
                if (u != v and ((u, v) not in evolving.graph.edge_key_set()
                                or (u, v) in deletes)
                        and all((u, v) != (a, b) for a, b, _ in inserts)):
                    inserts.append((u, v, 1.0))
            evolving.apply_batch(inserts=inserts, deletes=deletes)
        assert len(evolving.sizes) == 4 and min(evolving.sizes) > 0


class _ForestSpy(EvolvingSparsifier):
    """Logs the branch each batch's forest upkeep took: ``"kept"`` when
    no spanning-forest search ran and the rooted forest carried over,
    ``"repaired"`` when the search ran."""

    def __init__(self, *args, **kwargs):
        self.branches = []
        super().__init__(*args, **kwargs)

    def _repair_forest(self, near, tree_deleted, inserted):
        fresh = super()._repair_forest(near, tree_deleted, inserted)
        self.branches.append("repaired" if self._forest is None else "kept")
        return fresh


def _two_components(rng):
    """Two random connected graphs side by side (nodes ``0..a-1`` and
    ``a..n-1``): a random tree on each plus a few chords."""
    sizes = (int(rng.integers(7, 11)), int(rng.integers(7, 11)))
    edges, start = {}, 0
    for size in sizes:
        pairs = [(start + int(rng.integers(0, node)), start + node)
                 for node in range(1, size)]
        pairs += [tuple(sorted(start + int(x)
                               for x in rng.choice(size, 2, replace=False)))
                  for _ in range(size // 2)]
        for pair in pairs:
            edges[pair] = float(rng.choice([0.5, 1.0, 2.0]))
        start += size
    graph = repro.Graph.from_edges(
        start, [(a, b, w) for (a, b), w in edges.items()])
    return graph, sizes[0]


def _pair(rng, graph, *, inner=False):
    """A node pair that is not an edge of *graph*; with *inner*, one
    whose ends lie in one component of it."""
    _, labels = connected_components(graph.to_scipy_adjacency(),
                                     directed=False)
    present = graph.edge_key_set()
    while True:
        a, b = sorted(int(x) for x in rng.integers(0, graph.n, 2))
        if (a != b and (a, b) not in present
                and (labels[a] == labels[b] or not inner)):
            return a, b


def _assert_cached_forest_is_fresh(evolving):
    """The carried-over rooted forest equals a fresh rooting."""
    cached = evolving._forest
    if cached is None:
        return
    fresh = RootedForest(evolving.graph, np.flatnonzero(evolving._tree))
    assert cached.graph is evolving.graph
    assert cached.component_count == fresh.component_count
    for name in ("edge_ids", "parent", "parent_edge", "depth", "rdist",
                 "component_labels", "roots"):
        np.testing.assert_array_equal(getattr(cached, name),
                                      getattr(fresh, name))
    assert len(cached.ancestors) == len(fresh.ancestors)
    for mine, theirs in zip(cached.ancestors, fresh.ancestors):
        np.testing.assert_array_equal(mine, theirs)


PHASES = {f"{name}_seconds" for name in (
    "check", "materialize", "region", "forest", "rerank", "drift",
    "rebuild")}


class TestArrayDeltaPath:
    @settings(deadline=None, max_examples=12)
    @given(seed=st.integers(0, 2**16),
           method=st.sampled_from(["proposed", "er_sampling"]))
    def test_matches_the_dict_reference(self, seed, method):
        """Random streams on two components: an off-tree insertion, a
        forest-edge deletion, a forest edge re-weighted, an insertion
        that merges the components, the deletion of that bridge (drift
        becomes inf, then a rebuild), an explicit rebuild, then random
        batches.  After every batch the array path's entry (timings
        aside), forest, kept set and drift estimate equal the dict
        reference's, the carried-over rooted forest equals a fresh
        rooting, and the phases add up to the batch's seconds."""
        rng = np.random.default_rng(seed)
        graph, split = _two_components(rng)
        options = {"edge_fraction": 0.3, "drift_budget": 1e6}
        evolving = _ForestSpy(graph, method, **options)
        reference = oracles.DictEvolvingSparsifier(graph, method, **options)
        # proposed roots its tree in the build's artifact store, and the
        # delta path adopts that forest instead of rooting its own.
        assert (evolving._forest is not None) == (method == "proposed")

        def weight():
            return float(rng.choice([0.5, 1.0, 2.0, 4.0]))

        def forest_edge():
            forest = evolving.forest_edges
            return forest[int(rng.integers(0, len(forest)))]

        def inner_insert():
            return [(*_pair(rng, evolving.graph, inner=True), weight())], []

        def reweight():
            pair = forest_edge()
            return [(*pair, weight())], [pair]

        def merge():
            bridge = (int(rng.integers(0, split)),
                      int(rng.integers(split, graph.n)))
            return [(*bridge, weight())], []

        def cut():
            return [], [merged[0][:2]]

        def mixed():
            edges = sorted(evolving.graph.edge_key_set())
            deletes = sorted({edges[int(k)] for k in rng.integers(
                0, len(edges), size=int(rng.integers(0, 3)))})
            inserts = [(*_pair(rng, evolving.graph), weight())
                       for _ in range(int(rng.integers(1, 3)))]
            inserts = list({pair[:2]: pair for pair in inserts}.values())
            return inserts, deletes

        steps = [inner_insert, lambda: ([], [forest_edge()]), reweight,
                 inner_insert, merge, cut, "rebuild", inner_insert,
                 mixed, mixed, mixed]
        merged = None
        for step in steps:
            if step == "rebuild":
                evolving.rebuild()
                reference.rebuild()
                got, expected = (evolving.record.entries[-1],
                                 reference.record.entries[-1])
            else:
                inserts, deletes = step()
                if step is merge:
                    merged = inserts
                got = evolving.apply_batch(inserts=inserts, deletes=deletes)
                expected = reference.apply_batch(inserts=inserts,
                                                 deletes=deletes)
            assert _untimed(got) == _untimed(expected)
            assert evolving.forest_edges == reference.forest_edges
            assert evolving.kept_edges == reference.kept_edges
            assert evolving.drift_estimate == reference.drift_estimate
            for name in ("u", "v", "w"):
                np.testing.assert_array_equal(
                    getattr(evolving.graph, name),
                    getattr(reference.graph, name))
            _assert_cached_forest_is_fresh(evolving)
            if step != "rebuild":
                assert set(got["phases"]) == PHASES
            assert sum(got["phases"].values()) == pytest.approx(
                got["seconds"], rel=1e-9)
        cut_entry = evolving.record.entries[steps.index(cut)]
        assert cut_entry["drift_estimate"] == math.inf
        assert cut_entry["rebuild"] is True
        assert {"kept", "repaired"} <= set(evolving.branches)
        assert DeltaRecord.from_json(evolving.record.to_json()) \
            == evolving.record


class _PerChargeDrift(oracles.DictEvolvingSparsifier):
    """The dict delta path's drift monitor with a fresh kept-subgraph
    search per charge.

    Each charge's detour is a scipy Dijkstra over a CSR matrix of the
    kept edges built for that charge alone; ``charges`` counts the
    charges of every batch.
    """

    def __init__(self, *args, **kwargs):
        self.charges = []
        super().__init__(*args, **kwargs)

    def _accumulate_drift(self, eb, deleted_kept, dropped, scores):
        inserted = {(u, v) for u, v, _ in eb.inserts}
        charges = [(u, v, w, scores.get((u, v))) for u, v, w in eb.inserts
                   if (u, v) not in self._kept]
        charges += [(u, v, self._edges[(u, v)], scores[(u, v)])
                    for u, v in dropped if (u, v) not in inserted]
        charges += [(u, v, w, None) for (u, v), w in deleted_kept]
        self.charges.append(len(charges))
        for u, v, w, leverage in charges:
            if leverage is None:
                leverage = self._tree_leverage(
                    getattr(self, "_forest", None), u, v, w)
            detour = self._detour(u, v)
            if detour is not None:
                leverage = (w * detour if leverage is None
                            else min(leverage, w * detour))
            if leverage is None:
                self._log_drift = math.inf
                return
            self._log_drift += math.log1p(leverage)

    def _detour(self, u, v):
        kept = [(a, b, 1.0 / w) for (a, b), w in self._edges.items()
                if (a, b) in self._kept]
        a, b, length = (np.asarray(x) for x in zip(*kept))
        lengths = sp.csr_matrix((length, (a, b)), shape=(self.n, self.n))
        distance = dijkstra(lengths, directed=False, indices=u)[v]
        return None if math.isinf(distance) else float(distance)


class TestRebuildAndDrift:
    def test_forced_rebuild_is_fingerprint_identical(self, small_grid):
        evolving = _evolving(small_grid)
        evolving.apply_batch(inserts=[(0, 27, 1.0)], deletes=[(0, 1)])
        record = evolving.rebuild()
        direct = RunRecord.from_result(
            api_sparsify(evolving.graph, "proposed", **OPTIONS),
            method="proposed",
        )
        assert record.fingerprint() == direct.fingerprint()
        assert evolving.base_record is record
        assert evolving.record.entries[-1]["rebuild"] is True

    def test_tiny_budget_forces_rebuild(self, small_grid):
        evolving = _evolving(small_grid, drift_budget=1.0 + 1e-9)
        entry = evolving.apply_batch(inserts=[(0, 27, 5.0)],
                                     deletes=[(0, 1)])
        assert entry["rebuild"] is True
        assert evolving.drift_estimate == 1.0  # reset by the rebuild

    def test_rebuild_refreshes_base_record(self, small_grid):
        evolving = _evolving(small_grid, drift_budget=1.0 + 1e-9)
        stale = evolving.base_record
        evolving.apply_batch(inserts=[(0, 27, 5.0)], deletes=[(0, 1)])
        assert evolving.base_record is not stale

    def test_drift_estimate_grows_monotonically_between_rebuilds(
            self, small_grid):
        evolving = _evolving(small_grid, drift_budget=1e9)
        last = evolving.drift_estimate
        for pair in ((0, 27), (3, 44), (10, 61)):
            evolving.apply_batch(inserts=[(pair[0], pair[1], 1.0)])
            assert evolving.drift_estimate >= last
            last = evolving.drift_estimate

    def test_drift_matches_a_per_charge_reference(self, monkeypatch):
        """Batches of several charges each: uncompensated insertions and
        deleted kept edges.  Every entry's ``drift_estimate`` equals the
        per-charge reference's, and the kept subgraph's CSR rows are
        built once per batch."""
        graph = grid2d(12, 12, weights="uniform", seed=5)
        kwargs = {**OPTIONS, "drift_budget": 1e6}
        built = []
        adjacency = EvolvingSparsifier._kept_adjacency
        monkeypatch.setattr(
            EvolvingSparsifier, "_kept_adjacency",
            lambda self: built.append(1) or adjacency(self))
        evolving = EvolvingSparsifier(graph, "proposed", **kwargs)
        reference = _PerChargeDrift(graph, "proposed", **kwargs)
        rng = np.random.default_rng(7)
        for _ in range(8):
            offtree = sorted(set(evolving.kept_edges)
                             - set(evolving.forest_edges))
            forest = evolving.forest_edges
            deletes = sorted(
                {offtree[int(k)] for k in rng.integers(0, len(offtree), 2)}
                | {forest[int(rng.integers(0, len(forest)))]})
            inserts = []
            while len(inserts) < 3:
                u, v = sorted(int(x) for x in rng.integers(0, graph.n, 2))
                if u != v and (u, v) not in evolving.graph.edge_key_set() \
                        and all((u, v) != (a, b) for a, b, _ in inserts):
                    inserts.append((u, v, 0.05))
            built.clear()
            got = evolving.apply_batch(inserts=inserts, deletes=deletes)
            assert len(built) == 1
            expected = reference.apply_batch(inserts=inserts,
                                             deletes=deletes)
            assert got["drift_estimate"] == expected["drift_estimate"]
            assert evolving.kept_edges == reference.kept_edges
        assert min(reference.charges) >= 3
        assert evolving.drift_estimate > 1.0

    def test_kappa_stays_within_drift_budget_of_scratch(self,
                                                        medium_grid):
        """The acceptance bound: after any batch sequence the kept

        sparsifier's kappa is within the drift budget of a
        from-scratch run on the same mutated graph."""
        evolving = _evolving(medium_grid)
        rng = np.random.default_rng(3)
        for _ in range(4):
            u = int(rng.integers(0, medium_grid.n))
            v = int((u + 19) % medium_grid.n)
            pair = (min(u, v), max(u, v))
            if u == v or pair in evolving.graph.edge_key_set():
                continue
            evolving.apply_batch(inserts=[(pair[0], pair[1], 1.0)])
        kappa = evaluate_sparsifier(
            evolving.graph, evolving.sparsifier
        ).kappa
        scratch = api_sparsify(evolving.graph, "proposed", **OPTIONS)
        kappa_scratch = evaluate_sparsifier(
            evolving.graph, scratch.sparsifier
        ).kappa
        assert kappa <= evolving.drift_budget * kappa_scratch


class TestFacade:
    def test_sparsify_delta_replays_batches(self):
        ev = repro.sparsify_delta(
            grid2d(8, 8, weights="uniform", seed=11),
            batches=[
                {"insert": [[0, 27, 1.0]], "delete": [[0, 1]]},
                {"insert": [[5, 40, 2.0]]},
            ],
            edge_fraction=0.2,
        )
        assert ev.record.batches == 2
        assert ev.sparsifier.edge_count > 0

    def test_facade_is_exported(self):
        assert repro.sparsify_delta is sparsify_delta

    def test_registry_capability_flag(self):
        from repro.api import sparsifier_methods

        flags = {name: spec.supports_incremental
                 for name, spec in sparsifier_methods().items()}
        assert flags["proposed"] is True
        assert flags["grass"] is False
