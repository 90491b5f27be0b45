"""Tests for the evolving sparsifier (repro.incremental.evolving)."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

import oracles
import repro
import repro.incremental.evolving as evolving_module
from repro.api import sparsify as api_sparsify
from repro.api.records import RunRecord
from repro.core.metrics import evaluate_sparsifier
from repro.exceptions import IncrementalError
from repro.graph import grid2d
from repro.incremental import EvolvingSparsifier, sparsify_delta

OPTIONS = {"edge_fraction": 0.2}


def _evolving(graph, **overrides):
    kwargs = {**OPTIONS, **overrides}
    return EvolvingSparsifier(graph, "proposed", **kwargs)


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
        assert (0, 27) in evolving._edges
        assert (0, 1) not in evolving._edges
        assert entry["inserted"] == 1 and entry["deleted"] == 1
        assert entry["touched_nodes"] >= 3
        assert evolving.record.batches == 1

    def test_delete_then_insert_reweights_in_one_batch(self, small_grid):
        evolving = _evolving(small_grid)
        evolving.apply_batch(inserts=[(0, 1, 9.0)], deletes=[(0, 1)])
        assert evolving._edges[(0, 1)] == 9.0

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
            if u == v or (min(u, v), max(u, v)) in evolving._edges:
                continue
            pair = (min(u, v), max(u, v))
            evolving.apply_batch(inserts=[(pair[0], pair[1], 1.0)])
            inserted.append(pair)
        for pair in inserted[:2]:
            evolving.apply_batch(deletes=[pair])
        assert _is_spanning_forest(medium_grid.n,
                                   evolving.forest_edges)

    def test_delta_path_matches_the_loop_oracle(self, monkeypatch):
        """A stream deleting forest edges, replayed on the old loops.

        The oracle repairs the forest with a DSU, maps pairs through
        ``edge_lookup`` dicts, roots one node at a time and answers
        LCAs with Tarjan's DFS; every entry but ``seconds``, the forest
        and the kept set must match after every batch.
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
                if u != v and (u, v) not in evolving._edges and all(
                        (u, v) != (a, b) for a, b, _ in inserts):
                    inserts.append((u, v, float(rng.choice([0.5, 1.0]))))
            stream.append((inserts, deletes))
            entry = evolving.apply_batch(inserts=inserts, deletes=deletes)
            trail.append(({k: x for k, x in entry.items() if k != "seconds"},
                          evolving.forest_edges, set(evolving._kept)))
        assert sum(entry["forest_replacements"] for entry, _, _ in trail) > 0
        rebuilds = sum(entry["rebuild"] for entry, _, _ in trail)
        assert 0 < rebuilds < len(trail)

        monkeypatch.setattr(evolving_module, "RootedForest",
                            oracles.RootedForest)
        monkeypatch.setattr(evolving_module, "batch_tree_resistances",
                            oracles.tree_resistances)
        oracle = oracles.OracleEvolvingSparsifier(graph, "proposed", **kwargs)
        for (inserts, deletes), (entry, forest, kept) in zip(stream, trail):
            got = oracle.apply_batch(inserts=inserts, deletes=deletes)
            assert {k: x for k, x in got.items() if k != "seconds"} == entry
            assert oracle.forest_edges == forest
            assert oracle._kept == kept


class _RegionSpy(EvolvingSparsifier):
    """Checks every touched region against the balls of the touched nodes
    in the old and the new graph, one loop-oracle BFS each."""

    def _apply(self, eb):
        self.old_graph = self.graph
        return super()._apply(eb)

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
            edges = sorted(evolving._edges)
            deletes = sorted({edges[int(k)] for k in rng.integers(
                0, len(edges), size=rng.integers(0, 4))})
            inserts, count = [], rng.integers(1, 4)
            while len(inserts) < count:
                u, v = sorted(int(x) for x in rng.integers(0, graph.n, 2))
                if (u != v and ((u, v) not in evolving._edges
                                or (u, v) in deletes)
                        and all((u, v) != (a, b) for a, b, _ in inserts)):
                    inserts.append((u, v, 1.0))
            evolving.apply_batch(inserts=inserts, deletes=deletes)
        assert len(evolving.sizes) == 4 and min(evolving.sizes) > 0


class _PerChargeDrift(EvolvingSparsifier):
    """The drift monitor with a fresh kept-subgraph search per charge.

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
        per-charge reference's, and the kept-subgraph adjacency is built
        once per batch."""
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
            offtree = sorted(evolving._kept - set(evolving.forest_edges))
            forest = evolving.forest_edges
            deletes = sorted(
                {offtree[int(k)] for k in rng.integers(0, len(offtree), 2)}
                | {forest[int(rng.integers(0, len(forest)))]})
            inserts = []
            while len(inserts) < 3:
                u, v = sorted(int(x) for x in rng.integers(0, graph.n, 2))
                if u != v and (u, v) not in evolving._edges and all(
                        (u, v) != (a, b) for a, b, _ in inserts):
                    inserts.append((u, v, 0.05))
            built.clear()
            got = evolving.apply_batch(inserts=inserts, deletes=deletes)
            assert len(built) == 1
            expected = reference.apply_batch(inserts=inserts,
                                             deletes=deletes)
            assert got["drift_estimate"] == expected["drift_estimate"]
            assert evolving._kept == reference._kept
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
            if u == v or pair in evolving._edges:
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
