"""Edge batches and the machine-readable delta log.

An :class:`EdgeBatch` is one normalized group of edge mutations
(insertions and deletions) applied atomically to an evolving graph, and
a :class:`DeltaRecord` is the lossless JSON log of a whole mutation
stream — the incremental counterpart of
:class:`~repro.api.records.RunRecord`: per batch it captures how many
edges changed, how far the change propagated (touched nodes, re-ranked
edges, forest replacements), what the drift monitor estimated, and
whether a full rebuild fired.  ``DeltaRecord.from_json(r.to_json()) ==
r`` holds bit for bit, so ``BENCH_incremental.json`` trajectories and
the service's ``GET /graphs/<id>/sparsifier`` payload share one schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.exceptions import IncrementalError

__all__ = ["EdgeBatch", "DeltaRecord", "normalize_batch"]

SCHEMA_VERSION = 1

#: Keys a wire-format batch dict may carry.
_BATCH_KEYS = frozenset({"insert", "delete"})


@dataclass(frozen=True)
class EdgeBatch:
    """One normalized batch of edge mutations.

    Attributes
    ----------
    inserts:
        Tuple of ``(u, v, w)`` triples with ``u < v`` and ``w > 0``.
    deletes:
        Tuple of ``(u, v)`` pairs with ``u < v``.
    """

    inserts: tuple = ()
    deletes: tuple = ()

    @property
    def touched_nodes(self) -> tuple:
        """Sorted endpoints of every edge this batch mutates."""
        nodes = {u for u, v, _ in self.inserts for u in (u, v)}
        nodes.update(n for u, v in self.deletes for n in (u, v))
        return tuple(sorted(nodes))

    def to_dict(self) -> dict:
        """The batch in wire format: ``{"insert": ..., "delete": ...}``."""
        return {
            "insert": [[u, v, w] for u, v, w in self.inserts],
            "delete": [[u, v] for u, v in self.deletes],
        }


def normalize_batch(inserts=(), deletes=(), *, batch: dict | None = None
                    ) -> EdgeBatch:
    """Validate and canonicalize one edge batch.

    Accepts either explicit ``inserts`` / ``deletes`` iterables or a
    wire-format ``batch`` dict (``{"insert": [[u, v, w], ...],
    "delete": [[u, v], ...]}`` — the ``PATCH /graphs/<id>/edges``
    body).  Endpoints are canonicalized to ``u < v``; self loops,
    non-positive weights, malformed entries and duplicates within one
    half raise :class:`~repro.exceptions.IncrementalError`.  The same
    edge may appear in both halves — delete-then-insert re-weights it
    atomically (deletions apply first).
    """
    if batch is not None:
        if inserts or deletes:
            raise IncrementalError(
                "pass either a batch dict or inserts=/deletes=, not both"
            )
        if not isinstance(batch, dict):
            raise IncrementalError(
                f"edge batch must be a dict, got {type(batch).__name__}"
            )
        unknown = sorted(set(batch) - _BATCH_KEYS)
        if unknown:
            raise IncrementalError(
                f"unknown edge-batch key(s) {', '.join(map(repr, unknown))}; "
                "valid keys: delete, insert"
            )
        inserts = batch.get("insert") or ()
        deletes = batch.get("delete") or ()

    # Duplicates are rejected per half; one edge may appear in BOTH
    # halves, because delete-then-insert is the documented way to
    # re-weight an edge atomically (deletions apply first).
    seen: set = set()
    norm_inserts = []
    for entry in inserts:
        try:
            u, v, w = entry
            u, v, w = int(u), int(v), float(w)
        except (TypeError, ValueError):
            raise IncrementalError(
                f"insert entries must be (u, v, w) triples, got {entry!r}"
            ) from None
        if u == v:
            raise IncrementalError(f"self loop ({u}, {v}) is not allowed")
        if not (w > 0.0) or w != w or w == float("inf"):
            raise IncrementalError(
                f"edge weight must be finite and positive, got {w!r} "
                f"for ({u}, {v})"
            )
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise IncrementalError(
                f"edge ({u}, {v}) appears twice in one batch"
            )
        seen.add((u, v))
        norm_inserts.append((u, v, w))

    seen = set()
    norm_deletes = []
    for entry in deletes:
        try:
            u, v = entry
            u, v = int(u), int(v)
        except (TypeError, ValueError):
            raise IncrementalError(
                f"delete entries must be (u, v) pairs, got {entry!r}"
            ) from None
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise IncrementalError(
                f"edge ({u}, {v}) appears twice in one batch"
            )
        seen.add((u, v))
        norm_deletes.append((u, v))
    return EdgeBatch(inserts=tuple(norm_inserts),
                     deletes=tuple(norm_deletes))


@dataclass
class DeltaRecord:
    """The lossless log of one evolving-sparsifier mutation stream.

    Attributes
    ----------
    method:
        Registry name of the underlying sparsifier method.
    label:
        Graph label (mirrors :class:`~repro.api.records.RunRecord`).
    config:
        The method configuration as a plain dict.
    drift_budget:
        The condition-number budget the drift monitor rebuilds at.
    graph:
        ``{"nodes", "edges"}`` summary of the *base* graph the stream
        started from.
    entries:
        One dict per applied batch (and per explicit rebuild):
        ``{"batch", "inserted", "deleted", "touched_nodes",
        "reranked_edges", "forest_replacements", "kept_added",
        "kept_dropped", "graph_edges", "sparsifier_edges",
        "drift_estimate", "rebuild", "seconds", "phases"}``, where
        ``phases`` maps ``*_seconds`` keys to the seconds of each step
        of the batch, which add up to ``seconds``.
    """

    method: str
    label: str
    config: dict
    drift_budget: float
    graph: dict
    entries: list = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    @property
    def batches(self) -> int:
        """Number of logged entries (batches plus explicit rebuilds)."""
        return len(self.entries)

    @property
    def rebuilds(self) -> int:
        """How many entries ended in a full rebuild."""
        return sum(1 for entry in self.entries if entry.get("rebuild"))

    def append(self, entry: dict) -> dict:
        """Append one per-batch entry (stamped with its index)."""
        entry = dict(entry)
        entry.setdefault("batch", len(self.entries))
        self.entries.append(entry)
        return entry

    # ------------------------------------------------------------------
    # (de)serialization — the RunRecord contract
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The record as one plain, JSON-serializable dict."""
        return {
            "schema_version": self.schema_version,
            "method": self.method,
            "label": self.label,
            "config": self.config,
            "drift_budget": self.drift_budget,
            "graph": self.graph,
            "entries": self.entries,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DeltaRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(
            method=data["method"],
            label=data["label"],
            config=data["config"],
            drift_budget=float(data["drift_budget"]),
            graph=data["graph"],
            entries=list(data.get("entries", [])),
            schema_version=data.get("schema_version", SCHEMA_VERSION),
        )

    def to_json(self, indent: int | None = 2) -> str:
        """Serialize losslessly to JSON text."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DeltaRecord":
        """Inverse of :meth:`to_json`: ``from_json(r.to_json()) == r``."""
        return cls.from_dict(json.loads(text))
