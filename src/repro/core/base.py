"""Shared sparsifier contract: base configuration and artifact store.

Every sparsification method in this package — the paper's Algorithm 2
and the GRASS / feGRASS / effective-resistance-sampling baselines —
plugs into the same three-piece contract:

* a configuration dataclass deriving from :class:`BaseSparsifierConfig`
  (so ``edge_fraction`` / ``seed`` mean the same thing everywhere and
  every config serializes losslessly through :meth:`to_dict`);
* a runner returning a
  :class:`~repro.core.sparsifier.SparsifierResult`;
* optional reuse of expensive per-graph artifacts through an
  :class:`ArtifactStore` (spanning trees, Laplacians, Cholesky
  factors, tree-phase criticalities), which is how
  :class:`repro.api.SparsifierSession` makes fraction/method sweeps
  over one graph stop re-deriving shared state.

The method registry (:mod:`repro.api.registry`) binds the pieces
together; this module stays import-light so the core sparsifier
modules can depend on it without cycles.
"""

from __future__ import annotations

import functools
import math
import numbers
import threading
import typing
from collections import Counter
from dataclasses import dataclass, fields, replace
from types import SimpleNamespace

from repro.exceptions import GraphError
from repro.utils.timers import Timer

__all__ = [
    "BOUNDARY_POLICIES",
    "BaseSparsifierConfig",
    "ArtifactStore",
    "shared_artifact",
]

#: How the shard-parallel pipeline treats cut (inter-shard) edges; see
#: :mod:`repro.core.sharding`.
BOUNDARY_POLICIES = ("keep", "sample")


@dataclass(kw_only=True)
class BaseSparsifierConfig:
    """Options every sparsification method understands.

    All config fields (here and in subclasses) are keyword-only:
    deriving from this base appends the shared fields to the front of
    the dataclass, so allowing positional construction would silently
    re-bind arguments of the pre-refactor config classes.

    Parameters
    ----------
    edge_fraction : float
        Recovery budget ``alpha``: keep ``edge_fraction * |V|``
        off-tree edges on top of the spanning backbone.
    seed : int
        Seed of the method's random stream (recorded even for
        deterministic methods, for API symmetry).
    shards : int
        Shard-parallel pipeline (:mod:`repro.core.sharding`): ``1``
        (default) sparsifies the graph in one piece — byte-identical to
        the pre-sharding code path; ``N > 1`` recursively bipartitions
        the node set via the Fiedler machinery into ``N`` blocks,
        sparsifies each block independently (optionally concurrently)
        and stitches the results, treating cut edges per
        ``boundary_policy``.
    boundary_policy : str
        What happens to the cut (inter-shard) edges when ``shards >
        1``: ``"keep"`` (default) retains every cut edge verbatim —
        the spectrally safe choice; ``"sample"`` keeps a per-component
        connectivity backbone plus a leverage-biased sample of the
        rest (smaller output, looser spectral guarantee).
    """

    edge_fraction: float = 0.10
    seed: int = 0
    shards: int = 1
    boundary_policy: str = "keep"

    def validate(self) -> None:
        """Raise :class:`~repro.exceptions.GraphError` on bad knobs.

        Subclasses call this first: it also checks the type of every
        integer and boolean field, theirs included, before any of them
        is compared or used.
        """
        self._check_types()
        if not 0.0 <= self.edge_fraction < math.inf:
            raise GraphError(
                "edge_fraction must be finite and nonnegative, "
                f"got {self.edge_fraction!r}"
            )
        if self.shards < 1:
            raise GraphError("shards must be >= 1")
        if self.boundary_policy not in BOUNDARY_POLICIES:
            raise GraphError(
                f"unknown boundary_policy {self.boundary_policy!r}; "
                f"choose from {sorted(BOUNDARY_POLICIES)}"
            )

    def _check_types(self) -> None:
        """Integer fields take integers, boolean fields ``True``/``False``.

        An ``int`` field given a bool or any non-integer (a whole float
        such as ``2.0`` included) and a ``bool`` field given anything but
        a bool raise, instead of failing later with a bare ``TypeError``
        or running silently as something else.  ``int | None`` fields
        also take ``None``.
        """
        for name, kind in _typed_fields(type(self)):
            value = getattr(self, name)
            if kind is bool:
                if not isinstance(value, bool):
                    raise GraphError(
                        f"{name} must be True or False, got {value!r}"
                    )
            # ``type(value) is int`` first: the ABC check costs a
            # microsecond, and every run validates its config.
            elif not (type(value) is int
                      or (value is None and kind is not int)
                      or (not isinstance(value, bool)
                          and isinstance(value, numbers.Integral))):
                raise GraphError(
                    f"{name} must be an integer, got {value!r}; "
                    "whole floats such as 2.0 are not accepted"
                )

    def resolve_backend(self):
        """Compatibility stub: an object whose ``name`` is ``"scipy"``.

        There is no backend option: every method factors through
        :func:`repro.linalg.cholesky` (SuperLU).  ``perfbench/run.py``
        still records ``config.resolve_backend().name`` in its
        ``# environment`` line, and ``"scipy"`` keeps that line as it
        was.  Delete this stub together with that call, in the next
        change to the benchmark.
        """
        return SimpleNamespace(name="scipy")

    def resolve_kernels(self):
        """Compatibility stub: an object whose ``name`` is ``"vector"``.

        There is no kernel option: every run takes one numpy code path.
        ``perfbench/run.py`` still records ``config.resolve_kernels().name``
        in its ``# environment`` line, and ``"vector"`` keeps that line
        as it was.  Delete this stub together with that call.
        """
        return SimpleNamespace(name="vector")

    def to_dict(self) -> dict:
        """All options as a plain ``{name: value}`` dict (JSON-safe)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict):
        """Rebuild a config from :meth:`to_dict` output."""
        names = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - names)
        if unknown:
            raise GraphError(
                f"{cls.__name__} does not accept option(s) "
                f"{', '.join(map(repr, unknown))}; "
                f"valid options: {', '.join(sorted(names))}"
            )
        return cls(**data)

    def replace(self, **changes):
        """A copy of this config with *changes* applied."""
        return replace(self, **changes)


@functools.cache
def _typed_fields(cls) -> tuple:
    """``(name, type)`` of the ``int``, ``int | None`` and ``bool`` fields."""
    types = typing.get_type_hints(cls)
    return tuple((f.name, types[f.name]) for f in fields(cls)
                 if types[f.name] in (int, int | None, bool))


class ArtifactStore:
    """Keyed memo for expensive per-graph artifacts, with hit stats.

    One store belongs to one graph (a
    :class:`~repro.api.SparsifierSession` owns one); entries are keyed
    by ``(kind, key)`` where *key* pins down every input that
    determines the artifact — e.g. ``("tree", ("mewst",))`` or
    ``("factor_g", (reg_rel,))``.  Stored values are treated as
    read-only by all consumers, which is what makes reuse bit-exact.

    With a :class:`~repro.core.diskcache.DiskCache` attached, misses
    consult the on-disk layer before building, and freshly built
    artifacts are written through — so the artifacts survive the
    process and a warm run in a new process skips setup entirely.
    Disk traffic is tracked separately (``stats()["disk"]``): the
    in-memory ``hits``/``misses`` counters keep their pre-disk meaning
    ("was it already in *this* store").

    The store is safe for concurrent use from multiple threads (the
    service scheduler's workers hammer one session's store): map
    mutation and counters sit behind a lock, while the build itself
    runs *outside* it under a per-slot in-flight marker — an artifact
    is still built exactly once no matter how many threads race for it
    (losers wait and then observe the winner's object), but a
    long-running build never blocks :meth:`stats` readers such as the
    service's ``/stats`` endpoint.  Builds may recursively
    :meth:`get` other artifacts; distinct stores never contend.

    Examples
    --------
    >>> store = ArtifactStore()
    >>> store.get("tree", ("mewst",), lambda: [0, 1, 2])
    [0, 1, 2]
    >>> store.get("tree", ("mewst",), lambda: [9, 9, 9])
    [0, 1, 2]
    >>> store.stats()["hits"]
    {'tree': 1}
    """

    def __init__(self, disk=None) -> None:
        self._entries: dict = {}
        self.disk = disk
        self._lock = threading.RLock()
        self._inflight: dict = {}   # slot -> Event set when build ends
        self.hits: Counter = Counter()
        self.misses: Counter = Counter()
        #: Cumulative wall time spent restoring artifacts from the disk
        #: layer (loads, hit or miss).  Callers snapshot it around a run
        #: to attribute warm-run setup to cache I/O rather than compute
        #: (``RunRecord.timings["restore_seconds"]``).
        self.restore_seconds: float = 0.0

    def get(self, kind: str, key: tuple, build):
        """Return the cached artifact, building (and storing) on miss.

        Lookup order: this store's memory, then the attached disk
        cache (if any), then *build* — whose result is written through
        to both layers.  Concurrent callers racing for the same
        artifact share one build: the first becomes the builder, the
        rest wait on a per-slot event (outside the lock) and then read
        the winner's entry — counted as hits, exactly as if they had
        arrived after it.  If the builder raises, a waiter retries.
        """
        slot = (kind, key)
        while True:
            with self._lock:
                if slot in self._entries:
                    self.hits[kind] += 1
                    return self._entries[slot]
                event = self._inflight.get(slot)
                if event is None:
                    event = threading.Event()
                    self._inflight[slot] = event
                    self.misses[kind] += 1
                    break
            event.wait()
        try:
            if self.disk is not None:
                timer = Timer()
                with timer:
                    found, value = self.disk.load(kind, key)
                with self._lock:
                    self.restore_seconds += timer.elapsed
                    if found:
                        self._entries[slot] = value
                if found:
                    return value
            value = build()
            with self._lock:
                self._entries[slot] = value
            if self.disk is not None:
                self.disk.store_best_effort(kind, key, value)
            return value
        finally:
            with self._lock:
                del self._inflight[slot]
            event.set()

    def stats(self) -> dict:
        """Hit/miss counters per artifact kind plus the entry count.

        When a disk cache is attached the dict gains a ``"disk"`` block
        with its own per-kind ``hits``/``misses``/``stores``/``skips``/
        ``evictions``/``errors`` counters.
        """
        with self._lock:
            stats = {
                "hits": dict(self.hits),
                "misses": dict(self.misses),
                "entries": len(self._entries),
            }
            if self.disk is not None:
                stats["disk"] = self.disk.stats()
            return stats

    def clear(self) -> None:
        """Drop every cached artifact and reset the counters.

        Only the in-memory layer is dropped; use ``store.disk.clear()``
        to delete the persistent entries too.
        """
        with self._lock:
            self._entries.clear()
            self.hits.clear()
            self.misses.clear()
            self.restore_seconds = 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, slot) -> bool:
        return slot in self._entries


def shared_artifact(artifacts, kind: str, key: tuple, build):
    """Fetch through *artifacts* when present, else build directly.

    The sparsifier runners call this for every artifact a session may
    share; a cold (session-less) run passes ``artifacts=None`` and pays
    full price, which keeps the cold path byte-for-byte identical to
    the pre-registry code.
    """
    if artifacts is None:
        return build()
    return artifacts.get(kind, key, build)
