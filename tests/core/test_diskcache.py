"""The on-disk artifact cache: addressing, recovery and isolation.

The contract under test: a warm run in a *fresh process* (modeled by a
fresh session sharing nothing in memory) reproduces the cold run bit
for bit while loading its setup from disk; corrupt entries are evicted
and rebuilt instead of poisoning results; and every entry is content-
addressed, so a different graph, key or package version can never
be served another's artifacts.
"""

import numpy as np
import pytest

import repro
from repro.api import SparsifierSession
from repro.core.base import ArtifactStore
from repro.core.diskcache import (
    CACHE_SCHEMA_VERSION,
    DiskCache,
    default_cache_root,
    graph_fingerprint,
)
from repro.graph import Graph, grid2d


@pytest.fixture()
def grid():
    return grid2d(12, 12, weights="uniform", seed=31)


class TestFingerprint:
    def test_identical_content_same_fingerprint(self):
        a = grid2d(10, 10, weights="uniform", seed=4)
        b = grid2d(10, 10, weights="uniform", seed=4)
        assert a is not b
        assert graph_fingerprint(a) == graph_fingerprint(b)

    def test_single_weight_bit_changes_fingerprint(self):
        a = grid2d(10, 10, weights="uniform", seed=4)
        w = a.w.copy()
        w[0] = np.nextafter(w[0], np.inf)
        b = Graph(a.n, a.u.copy(), a.v.copy(), w)
        assert graph_fingerprint(a) != graph_fingerprint(b)

    def test_seed_changes_fingerprint(self):
        a = grid2d(10, 10, weights="uniform", seed=4)
        b = grid2d(10, 10, weights="uniform", seed=5)
        assert graph_fingerprint(a) != graph_fingerprint(b)


class TestHitMiss:
    def test_roundtrip_numpy_payload(self, grid, tmp_path):
        cache = DiskCache(grid, root=tmp_path)
        value = {"ids": np.arange(7), "score": np.float64(0.25)}
        assert cache.store("tree", ("mewst",), value)
        found, loaded = cache.load("tree", ("mewst",))
        assert found
        np.testing.assert_array_equal(loaded["ids"], value["ids"])
        assert cache.stats()["hits"] == {"tree": 1}

    def test_absent_entry_is_miss(self, grid, tmp_path):
        cache = DiskCache(grid, root=tmp_path)
        found, value = cache.load("tree", ("mewst",))
        assert (found, value) == (False, None)
        assert cache.misses["tree"] == 1

    def test_key_distinguishes_reg_rel(self, grid, tmp_path):
        cache = DiskCache(grid, root=tmp_path)
        cache.store("factor_g", (1e-6,), "factor")
        found, _ = cache.load("factor_g", (1e-5,))
        assert not found

    def test_graphs_are_namespaced(self, grid, tmp_path):
        other = grid2d(12, 12, weights="uniform", seed=32)
        DiskCache(grid, root=tmp_path).store("tree", ("mewst",), [1, 2])
        found, _ = DiskCache(other, root=tmp_path).load("tree", ("mewst",))
        assert not found

    def test_version_bump_starts_fresh_namespace(
        self, grid, tmp_path, monkeypatch
    ):
        cache = DiskCache(grid, root=tmp_path)
        cache.store("tree", ("mewst",), [1, 2, 3])
        monkeypatch.setattr(repro, "__version__", "999.0.0-test")
        found, _ = DiskCache(grid, root=tmp_path).load("tree", ("mewst",))
        assert not found

    def test_source_edit_starts_fresh_namespace(
        self, grid, tmp_path, monkeypatch
    ):
        """Any change to the package source — not just a version bump —
        must invalidate the cache, or a mid-development rerun would
        serve artifacts computed by the old code."""
        from repro.core import diskcache

        cache = DiskCache(grid, root=tmp_path)
        cache.store("tree", ("mewst",), [1, 2, 3])
        monkeypatch.setattr(
            diskcache, "_SOURCE_FINGERPRINT", "edited-source-digest"
        )
        found, _ = DiskCache(grid, root=tmp_path).load("tree", ("mewst",))
        assert not found

    def test_library_upgrade_starts_fresh_namespace(
        self, grid, tmp_path, monkeypatch
    ):
        """A numpy/scipy upgrade can change factor bits; pre-upgrade
        artifacts must never be served under the new libraries."""
        from repro.core import diskcache

        cache = DiskCache(grid, root=tmp_path)
        cache.store("tree", ("mewst",), [1, 2, 3])
        monkeypatch.setattr(
            diskcache, "_library_versions", lambda: ("9.9.9", "9.9.9")
        )
        found, _ = DiskCache(grid, root=tmp_path).load("tree", ("mewst",))
        assert not found

    def test_stale_entries_garbage_collected_at_init(
        self, grid, tmp_path
    ):
        """Orphaned entries (every source edit strands the previous
        namespace) must not accumulate forever."""
        import os
        import time

        cache = DiskCache(grid, root=tmp_path)
        cache.store("tree", ("mewst",), [1, 2])
        cache.store("shift", (1e-6,), 0.5)
        (old,) = [p for p in tmp_path.rglob("*.pkl") if "tree" in p.name]
        ancient = time.time() - (DiskCache.max_age_days + 1) * 86400
        os.utime(old, (ancient, ancient))
        fresh = DiskCache(grid, root=tmp_path)
        assert not old.exists(), "stale entry must be collected"
        assert fresh.load("shift", (1e-6,))[0], "recent entry survives"

    def test_forest_kind_never_persisted(self, grid, tmp_path):
        """A RootedForest pickle embeds a full copy of the graph's edge
        arrays; it is rebuilt on warm runs instead of stored."""
        cache = DiskCache(grid, root=tmp_path)
        assert not cache.store("forest", ("mewst",), object())
        assert cache.skips["forest"] == 1
        assert not list(tmp_path.rglob("*.pkl"))
        assert cache.load("forest", ("mewst",)) == (False, None)

    def test_unpicklable_value_skipped_not_persisted(self, grid, tmp_path):
        cache = DiskCache(grid, root=tmp_path)
        assert not cache.store("factor_g", (1e-6, "scipy"), lambda: None)
        assert cache.skips["factor_g"] == 1
        assert not list(tmp_path.rglob("*.pkl"))

    def test_clear_removes_only_this_graph(self, grid, tmp_path):
        other = grid2d(12, 12, weights="uniform", seed=32)
        mine = DiskCache(grid, root=tmp_path)
        theirs = DiskCache(other, root=tmp_path)
        mine.store("tree", ("mewst",), [1])
        theirs.store("tree", ("mewst",), [2])
        assert mine.clear() == 1
        assert DiskCache(other, root=tmp_path).load("tree", ("mewst",))[0]


class TestCorruptionRecovery:
    def _entry_path(self, cache, tmp_path):
        files = list(tmp_path.rglob("*.pkl"))
        assert len(files) == 1
        return files[0]

    @pytest.mark.parametrize("damage", ["truncate", "garbage", "empty"])
    def test_corrupt_entry_evicted_and_rebuilt(
        self, grid, tmp_path, damage
    ):
        cache = DiskCache(grid, root=tmp_path)
        cache.store("tree", ("mewst",), list(range(100)))
        path = self._entry_path(cache, tmp_path)
        blob = path.read_bytes()
        if damage == "truncate":
            path.write_bytes(blob[: len(blob) // 2])
        elif damage == "garbage":
            path.write_bytes(b"\x80not a pickle at all")
        else:
            path.write_bytes(b"")
        found, value = cache.load("tree", ("mewst",))
        assert (found, value) == (False, None)
        assert cache.evictions["tree"] == 1
        assert not path.exists(), "corrupt entry must be deleted"
        # The store rebuilds through its normal build path.
        store = ArtifactStore(disk=cache)
        rebuilt = store.get("tree", ("mewst",), lambda: list(range(100)))
        assert rebuilt == list(range(100))
        assert cache.load("tree", ("mewst",)) == (True, list(range(100)))

    def test_unwritable_root_degrades_to_memory_only(self, grid, tmp_path):
        """An unwritable cache root must not abort the run after the
        expensive build succeeded — write-through is best-effort."""
        blocker = tmp_path / "root-is-a-file"
        blocker.write_text("not a directory")
        session = SparsifierSession(grid, cache_dir=blocker)
        result = session.sparsify("er_sampling", edge_fraction=0.05)
        assert result.edge_count > 0
        disk = session.stats()["disk"]
        assert sum(disk["errors"].values()) > 0
        assert sum(disk["stores"].values()) == 0
        # And the results equal a memory-only session's, bit for bit.
        plain = SparsifierSession(grid).sparsify(
            "er_sampling", edge_fraction=0.05
        )
        np.testing.assert_array_equal(result.edge_mask, plain.edge_mask)

    def test_explicit_store_still_raises_cache_error(self, grid, tmp_path):
        from repro.exceptions import CacheError

        blocker = tmp_path / "root-is-a-file"
        blocker.write_text("not a directory")
        cache = DiskCache(grid, root=blocker)
        with pytest.raises(CacheError, match="cannot write"):
            cache.store("tree", ("mewst",), [1, 2])

    def test_artifact_store_writes_through(self, grid, tmp_path):
        cache = DiskCache(grid, root=tmp_path)
        store = ArtifactStore(disk=cache)
        store.get("shift", (1e-6,), lambda: 0.125)
        warm = ArtifactStore(disk=DiskCache(grid, root=tmp_path))
        calls = []
        value = warm.get("shift", (1e-6,), lambda: calls.append(1) or 1.0)
        assert value == 0.125
        assert not calls, "disk hit must not invoke the builder"
        assert warm.stats()["disk"]["hits"] == {"shift": 1}


class TestCacheDirIsolation:
    def test_env_var_overrides_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-root"))
        assert default_cache_root() == tmp_path / "env-root"

    def test_default_root_is_user_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        root = default_cache_root()
        assert root.name == "repro" and root.parent.name == ".cache"

    def test_persistent_session_respects_env_root(
        self, grid, tmp_path, monkeypatch
    ):
        root = tmp_path / "session-root"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
        session = SparsifierSession(grid, persistent=True)
        session.sparsify("er_sampling", edge_fraction=0.05)
        assert session.stats()["disk"]["root"] == str(root)
        assert list(root.rglob("*.pkl")), "artifacts must land under root"
        assert root.joinpath(f"v{CACHE_SCHEMA_VERSION}").is_dir()

    def test_roots_do_not_leak_into_each_other(self, grid, tmp_path):
        a = SparsifierSession(grid, cache_dir=tmp_path / "a")
        a.sparsify("er_sampling", edge_fraction=0.05)
        b = SparsifierSession(grid, cache_dir=tmp_path / "b")
        b.sparsify("er_sampling", edge_fraction=0.05)
        assert sum(b.stats()["disk"]["hits"].values()) == 0

    def test_memory_only_session_never_touches_disk(
        self, grid, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        session = SparsifierSession(grid)  # persistent not requested
        session.sparsify("er_sampling", edge_fraction=0.05)
        assert "disk" not in session.stats()
        assert not list(tmp_path.rglob("*.pkl"))


class TestWarmEqualsCold:
    @pytest.mark.parametrize("method,options", [
        ("proposed", {"rounds": 2}),
        ("er_sampling", {}),
        ("grass", {"rounds": 2}),
    ])
    def test_fresh_session_reproduces_run_from_disk(
        self, grid, tmp_path, method, options
    ):
        """Fresh sessions over one cache dir model two processes: the
        warm one must hit the disk and emit a bit-identical record."""
        cold_session = SparsifierSession(grid, cache_dir=tmp_path)
        cold = cold_session.run(
            method, edge_fraction=0.10, seed=1, **options
        )
        warm_session = SparsifierSession(grid, cache_dir=tmp_path)
        warm = warm_session.run(
            method, edge_fraction=0.10, seed=1, **options
        )
        assert warm.fingerprint() == cold.fingerprint()
        disk = warm_session.stats()["disk"]
        assert sum(disk["hits"].values()) > 0
        assert not disk["evictions"]

    def test_warm_er_sampling_skips_setup_entirely(self, grid, tmp_path):
        cold = SparsifierSession(grid, cache_dir=tmp_path)
        cold.sparsify("er_sampling", edge_fraction=0.10)
        warm = SparsifierSession(grid, cache_dir=tmp_path)
        warm.sparsify("er_sampling", edge_fraction=0.10)
        disk = warm.stats()["disk"]
        # Everything needed was loaded; nothing new was written.
        assert sum(disk["stores"].values()) == 0
        assert {"tree", "er_resistances"} <= set(disk["hits"])

    def test_scipy_factor_not_persisted_but_run_still_warm(
        self, grid, tmp_path
    ):
        """SuperLU factors skip the disk; everything else still warms."""
        cold_session = SparsifierSession(grid, cache_dir=tmp_path)
        cold = cold_session.run("er_sampling", edge_fraction=0.10, seed=1)
        assert cold_session.stats()["disk"]["skips"].get("factor_g", 0) == 1
        warm_session = SparsifierSession(grid, cache_dir=tmp_path)
        warm = warm_session.run("er_sampling", edge_fraction=0.10, seed=1)
        assert warm.fingerprint() == cold.fingerprint()
        assert warm_session.stats()["disk"]["hits"].get("factor_g", 0) == 0
