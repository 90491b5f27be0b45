"""Content-addressed on-disk artifact cache.

A :class:`DiskCache` persists the expensive per-graph artifacts an
:class:`~repro.core.base.ArtifactStore` memoizes — spanning trees,
rooted forests, regularization shifts, tree-phase criticalities,
tree stretches, full-graph Laplacians/Cholesky factors and JL
resistance sketches — across processes, so a warm ``repro sweep``
skips setup entirely.

Addressing
----------
Every entry is addressed by content, never by position:

* the **graph fingerprint** — a SHA-256 over the node count and the
  exact edge arrays (``u``/``v``/``w`` bytes), so two structurally
  identical graphs share entries and any change invalidates them;
* the **artifact kind and key** — the same ``(kind, key)`` pair the
  in-memory store uses, where the key pins every input that determines
  the artifact;
* the **cache schema version**, the ``repro`` package version *and a
  digest of the package's source files* — a release, a schema bump or
  any source edit (even between version bumps, mid-development)
  silently starts a fresh namespace instead of risking numerics from
  code that no longer exists.

The root directory is ``$REPRO_CACHE_DIR`` when set, else
``~/.cache/repro``.  Writes are atomic (temp file + ``os.replace``)
and reads treat any unpicklable/truncated entry as a miss: the corrupt
file is evicted and the artifact rebuilt, so a killed writer can never
poison later runs.  Values that cannot be pickled exactly (e.g. live
SuperLU handles inside Cholesky factors) are skipped rather than
persisted lossily — bit-exactness beats hit rate.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from collections import Counter
from pathlib import Path

from repro.exceptions import CacheError

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "NONPERSISTED_KINDS",
    "DiskCache",
    "cache_root_stats",
    "clear_cache_root",
    "collect_cache_garbage",
    "default_cache_root",
    "graph_fingerprint",
    "iter_cache_entries",
    "source_fingerprint",
]

#: Bump to invalidate every existing cache entry (layout/semantics change).
CACHE_SCHEMA_VERSION = 1

#: Environment variable overriding the cache root directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_MISS = object()

#: Artifact kinds never persisted: a ``RootedForest`` embeds a full
#: copy of the graph's edge arrays (plus its tree subgraph), so
#: storing it would duplicate O(m) data the fingerprint already pins —
#: and rebuilding it from the cached tree is cheap and deterministic.
#: A per-shard ``SparsifierSession`` (sharding pipeline) likewise
#: embeds its whole shard graph; the artifacts *inside* it persist
#: through the session's own disk cache instead.
NONPERSISTED_KINDS = frozenset({"forest", "shard_session"})

_SOURCE_FINGERPRINT: str | None = None


def source_fingerprint() -> str:
    """Digest of every ``.py`` file in the installed ``repro`` package.

    Computed once per process and folded into every entry address, so
    *any* source change invalidates the cache — not just a version
    bump.  Without this, editing an algorithm mid-development and
    rerunning a warm sweep would silently serve artifacts computed by
    the old code.
    """
    global _SOURCE_FINGERPRINT
    if _SOURCE_FINGERPRINT is None:
        import repro

        package_root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(path.read_bytes())
        _SOURCE_FINGERPRINT = digest.hexdigest()[:16]
    return _SOURCE_FINGERPRINT


def default_cache_root() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def graph_fingerprint(graph) -> str:
    """SHA-256 hex digest of a graph's exact content.

    Hashes the node count plus the raw bytes of the canonical edge
    arrays, so the fingerprint changes iff the graph does (including
    any single weight bit).
    """
    digest = hashlib.sha256()
    digest.update(f"n={graph.n};m={graph.edge_count};".encode())
    digest.update(graph.u.tobytes())
    digest.update(graph.v.tobytes())
    digest.update(graph.w.tobytes())
    return digest.hexdigest()


def _library_versions() -> tuple:
    """The dependency versions that determine stored numerics."""
    import numpy
    import scipy

    return (numpy.__version__, scipy.__version__)


def _key_digest(kind: str, key: tuple) -> str:
    """Stable digest of an artifact address (kind + key + code state).

    The token covers the package version, a digest of the package
    source *and* the numpy/scipy versions: upgrading a dependency can
    change factor bits (SuperLU), and serving pre-upgrade artifacts
    would stamp RunRecords with numerics a cold run under the new
    library cannot reproduce.
    """
    import repro

    token = repr((
        kind, key, repro.__version__, source_fingerprint(),
        _library_versions(),
    ))
    return hashlib.sha256(token.encode()).hexdigest()[:24]


def iter_cache_entries(root: Path):
    """Yield every entry file under a cache root (all graphs/schemas).

    The deterministic (sorted) walk behind ``repro cache`` operations
    and the fault-injection helpers — anything that needs to touch
    entries without knowing which graph or artifact kind they belong
    to.
    """
    if not root.is_dir():
        return
    for schema_dir in sorted(root.glob("v*")):
        if not schema_dir.is_dir():
            continue
        yield from sorted(schema_dir.glob("*/*/*.pkl"))


def _prune_empty_dirs(root: Path) -> None:
    """Remove now-empty graph/prefix/schema directories under *root*."""
    if not root.is_dir():
        return
    for schema_dir in root.glob("v*"):
        for prefix_dir in schema_dir.glob("*"):
            for graph_dir in prefix_dir.glob("*"):
                _rmdir_if_empty(graph_dir)
            _rmdir_if_empty(prefix_dir)
        _rmdir_if_empty(schema_dir)


def _rmdir_if_empty(path: Path) -> None:
    try:
        path.rmdir()
    except OSError:  # non-empty, racing writer, or not a directory
        pass


def cache_root_stats(root=None) -> dict:
    """Whole-root cache inventory, across every graph and schema.

    Unlike :meth:`DiskCache.stats` (one graph's live counters), this
    scans the directory tree an operator actually pays for: entry and
    graph counts, total bytes, and a per-kind breakdown.  Backs
    ``repro cache stats``.
    """
    root = Path(root) if root is not None else default_cache_root()
    graphs = set()
    entries = 0
    total_bytes = 0
    by_kind: dict = {}
    for path in iter_cache_entries(root):
        try:
            size = path.stat().st_size
        except OSError:  # pragma: no cover - racing eviction
            continue
        entries += 1
        total_bytes += size
        graphs.add(path.parent.name)
        kind = path.name.rsplit("-", 1)[0]
        slot = by_kind.setdefault(kind, {"entries": 0, "bytes": 0})
        slot["entries"] += 1
        slot["bytes"] += size
    return {
        "root": str(root),
        "exists": root.is_dir(),
        "graphs": len(graphs),
        "entries": entries,
        "bytes": total_bytes,
        "by_kind": dict(sorted(by_kind.items())),
    }


def collect_cache_garbage(root=None, max_age_days: float | None = None
                          ) -> int:
    """Drop every entry older than *max_age_days*; return the count.

    The root-wide form of the per-graph GC each :class:`DiskCache`
    runs at construction (same default age bound,
    :attr:`DiskCache.max_age_days`), covering graphs no current
    process constructs a cache for — exactly the entries per-graph GC
    can never reach.  Empty graph directories are pruned afterwards.
    Backs ``repro cache gc``.
    """
    root = Path(root) if root is not None else default_cache_root()
    if max_age_days is None:
        max_age_days = DiskCache.max_age_days
    import time

    cutoff = time.time() - float(max_age_days) * 86400.0
    removed = 0
    for path in iter_cache_entries(root):
        try:
            if path.stat().st_mtime < cutoff:
                path.unlink()
                removed += 1
        except OSError:  # pragma: no cover - racing eviction
            pass
    _prune_empty_dirs(root)
    return removed


def clear_cache_root(root=None) -> int:
    """Delete every entry under a cache root; return the count.

    ``repro cache clear``: removes all graphs' artifacts (and prunes
    the emptied directories) but leaves the root directory itself and
    any foreign files in it alone.
    """
    root = Path(root) if root is not None else default_cache_root()
    removed = 0
    for path in iter_cache_entries(root):
        try:
            path.unlink()
            removed += 1
        except OSError:  # pragma: no cover - racing eviction
            pass
    _prune_empty_dirs(root)
    return removed


class DiskCache:
    """Persistent artifact storage for one graph.

    Parameters
    ----------
    graph:
        The graph the artifacts belong to; its content fingerprint
        namespaces every entry.
    root:
        Cache root directory (default :func:`default_cache_root`).

    Examples
    --------
    >>> import tempfile
    >>> from repro.graph import grid2d
    >>> cache = DiskCache(grid2d(4, 4, seed=0), root=tempfile.mkdtemp())
    >>> cache.store("tree", ("mewst",), [0, 1, 2])
    True
    >>> found, value = cache.load("tree", ("mewst",))
    >>> found, value
    (True, [0, 1, 2])
    """

    #: Entries untouched for this long are garbage-collected at
    #: construction.  Address digests fold in source/library versions,
    #: so every code edit or upgrade orphans the previous entries —
    #: without an age bound the cache would only ever grow.
    max_age_days = 30.0

    def __init__(self, graph, root=None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.fingerprint = graph_fingerprint(graph)
        self._dir = (
            self.root
            / f"v{CACHE_SCHEMA_VERSION}"
            / self.fingerprint[:2]
            / self.fingerprint
        )
        self.hits: Counter = Counter()
        self.misses: Counter = Counter()
        self.stores: Counter = Counter()
        self.skips: Counter = Counter()       # unpicklable values
        self.evictions: Counter = Counter()   # corrupt entries removed
        self.errors: Counter = Counter()      # failed writes (see get())
        self._collect_garbage()

    def _collect_garbage(self) -> None:
        """Drop this graph's entries older than :attr:`max_age_days`.

        Orphans (entries addressed by a source/library state that no
        longer exists) are indistinguishable from live entries by name,
        so age is the criterion: anything a month stale is deleted, and
        a live artifact that happens to be evicted simply rebuilds —
        and re-stores with a fresh timestamp — on the next cold run.
        """
        if not self._dir.is_dir():
            return
        import time

        cutoff = time.time() - self.max_age_days * 86400.0
        for entry in self._dir.glob("*.pkl"):
            try:
                if entry.stat().st_mtime < cutoff:
                    entry.unlink()
            except OSError:  # pragma: no cover - racing eviction
                pass

    # ------------------------------------------------------------------
    def _path(self, kind: str, key: tuple) -> Path:
        return self._dir / f"{kind}-{_key_digest(kind, key)}.pkl"

    def load(self, kind: str, key: tuple):
        """Return ``(found, value)`` for an artifact address.

        A corrupt or truncated entry counts as a miss; the bad file is
        deleted so it is rebuilt (and rewritten) by the caller.
        """
        if kind in NONPERSISTED_KINDS:
            self.misses[kind] += 1
            return False, None
        path = self._path(kind, key)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except (FileNotFoundError, NotADirectoryError):
            self.misses[kind] += 1
            return False, None
        except Exception:
            # Truncated write, foreign bytes, unpicklable content from
            # an incompatible library version: evict and rebuild.
            self.evictions[kind] += 1
            self.misses[kind] += 1
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing eviction
                pass
            return False, None
        self.hits[kind] += 1
        return True, value

    def store(self, kind: str, key: tuple, value) -> bool:
        """Persist an artifact atomically; returns False when skipped.

        Values whose pickle fails (live SuperLU handles, open files)
        are skipped — persisting a lossy approximation would break the
        warm-equals-cold bit-exactness contract — as are
        :data:`NONPERSISTED_KINDS`, whose pickles would duplicate bulk
        data the graph fingerprint already determines.
        """
        if kind in NONPERSISTED_KINDS:
            self.skips[kind] += 1
            return False
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            self.skips[kind] += 1
            return False
        path = self._path(kind, key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=path.name, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError as exc:
            raise CacheError(
                f"cannot write artifact cache entry {path}: {exc}"
            ) from exc
        self.stores[kind] += 1
        return True

    def store_best_effort(self, kind: str, key: tuple, value) -> bool:
        """:meth:`store`, degrading write failures to a counted error.

        The write-through path of
        :class:`~repro.core.base.ArtifactStore` uses this: an
        unwritable or full cache root must fall back to memory-only
        behavior (``errors`` counter visible in :meth:`stats`), never
        abort a run whose expensive build already succeeded.
        """
        try:
            return self.store(kind, key, value)
        except CacheError:
            self.errors[kind] += 1
            return False

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Per-kind disk counters plus the cache location."""
        return {
            "root": str(self.root),
            "graph": self.fingerprint[:16],
            "hits": dict(self.hits),
            "misses": dict(self.misses),
            "stores": dict(self.stores),
            "skips": dict(self.skips),
            "evictions": dict(self.evictions),
            "errors": dict(self.errors),
        }

    def clear(self) -> int:
        """Delete every entry of this graph's namespace; return count."""
        removed = 0
        if self._dir.is_dir():
            for entry in self._dir.glob("*.pkl"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:  # pragma: no cover - racing eviction
                    pass
        return removed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DiskCache(root={str(self.root)!r}, "
            f"graph={self.fingerprint[:12]})"
        )
