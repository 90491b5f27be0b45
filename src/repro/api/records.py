"""Machine-readable run records.

A :class:`RunRecord` captures one sparsification run losslessly —
method, graph summary, full configuration, quality metrics, per-round
log, timings and the software environment — and round-trips through
JSON bit-for-bit (``RunRecord.from_json(record.to_json()) == record``).
The CLI's ``--json`` output, the ``sweep`` subcommand and the
``BENCH_*.json`` benchmark artifacts are all serialized RunRecords, so
quality/performance trajectories can be diffed across commits by
machines instead of eyeballs.
"""

from __future__ import annotations

import dataclasses
import json
import platform
from dataclasses import dataclass, field

import numpy as np

__all__ = ["RunRecord", "capture_environment"]

SCHEMA_VERSION = 3


def _jsonify(value):
    """Coerce numpy scalars/arrays and tuples into plain JSON types."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    return value


def _strip_seconds(value):
    """Drop every wall-clock field (``seconds`` / ``*_seconds`` keys)
    from a nested dict/list structure (for :meth:`RunRecord.fingerprint`)."""
    if isinstance(value, dict):
        return {
            k: _strip_seconds(v) for k, v in value.items()
            if not (k == "seconds" or k.endswith("_seconds"))
        }
    if isinstance(value, list):
        return [_strip_seconds(v) for v in value]
    return value


def capture_environment() -> dict:
    """Versions that determine a run's numerics (for provenance)."""
    import scipy

    import repro

    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "repro": repro.__version__,
    }


@dataclass
class RunRecord:
    """One sparsification run, ready for JSON storage.

    Attributes
    ----------
    method:
        Registry name of the sparsifier that produced the run.
    graph:
        ``{"label", "nodes", "edges"}`` summary of the input graph.
    config:
        The full method configuration as a plain dict; feed it back
        through :meth:`to_config` to reconstruct the dataclass.
    quality:
        :class:`~repro.core.metrics.QualityReport` fields (``None``
        when the run was not evaluated).
    rounds_log:
        The per-round diagnostics of the
        :class:`~repro.core.sparsifier.SparsifierResult` (sharded runs
        tag every entry with its shard index).
    timings:
        At least ``sparsify_seconds`` (compute time, cache-restore I/O
        excluded); ``restore_seconds`` when the run restored artifacts
        from a persistent cache — for serial runs the two sum to the
        sparsification wall clock, while concurrently restoring shards
        can make the summed restore exceed the elapsed time (compute is
        then clamped at 0) — and ``evaluate_seconds`` when a quality
        evaluation ran.
    sharding:
        Shard-parallel diagnostics (shard sizes, per-shard timings,
        cut statistics) when the run used ``shards > 1``; ``None``
        otherwise.
    environment:
        Output of :func:`capture_environment`.
    """

    method: str
    graph: dict
    config: dict
    quality: dict | None = None
    rounds_log: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    environment: dict = field(default_factory=capture_environment)
    sharding: dict | None = None
    schema_version: int = SCHEMA_VERSION

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_result(
        cls,
        result,
        method: str,
        label: str = "graph",
        quality=None,
        evaluate_seconds: float | None = None,
    ) -> "RunRecord":
        """Build a record from a ``SparsifierResult``.

        Parameters
        ----------
        result:
            The sparsification outcome.
        method:
            Registry name of the method that produced it.
        label:
            Human-readable graph identifier (case name or file path).
        quality:
            Optional :class:`~repro.core.metrics.QualityReport`.
        evaluate_seconds:
            Wall time of the quality evaluation, when one ran.
        """
        config = result.config
        if hasattr(config, "to_dict"):
            config = config.to_dict()
        elif dataclasses.is_dataclass(config):
            config = dataclasses.asdict(config)
        restore = float(getattr(result, "restore_seconds", 0.0) or 0.0)
        # Cache-restore I/O is split out of the compute time so warm-run
        # speedups are attributable; the two sum to the wall clock.
        # (Clamped: concurrent shards can restore in parallel, so their
        # summed restore time may exceed the elapsed wall clock.)
        timings = {
            "sparsify_seconds": max(
                float(result.setup_seconds) - restore, 0.0
            )
        }
        if restore > 0.0:
            timings["restore_seconds"] = restore
        if evaluate_seconds is not None:
            timings["evaluate_seconds"] = float(evaluate_seconds)
        quality_dict = None
        if quality is not None:
            quality_dict = _jsonify(dataclasses.asdict(quality))
        config = _jsonify(config)
        return cls(
            method=method,
            graph={
                "label": str(label),
                "nodes": int(result.graph.n),
                "edges": int(result.graph.edge_count),
                "sparsifier_edges": int(result.edge_count),
            },
            config=config,
            quality=quality_dict,
            rounds_log=_jsonify(result.rounds_log),
            timings=timings,
            environment=capture_environment(),
            sharding=_jsonify(getattr(result, "sharding", None)),
        )

    # ------------------------------------------------------------------
    # (de)serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The record as one plain, JSON-serializable dict."""
        return {
            "schema_version": self.schema_version,
            "method": self.method,
            "graph": self.graph,
            "config": self.config,
            "quality": self.quality,
            "rounds_log": self.rounds_log,
            "timings": self.timings,
            "environment": self.environment,
            "sharding": self.sharding,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(
            method=data["method"],
            graph=data["graph"],
            config=data["config"],
            quality=data.get("quality"),
            rounds_log=data.get("rounds_log", []),
            timings=data.get("timings", {}),
            environment=data.get("environment", {}),
            sharding=data.get("sharding"),
            schema_version=data.get("schema_version", SCHEMA_VERSION),
        )

    def to_json(self, indent: int | None = 2) -> str:
        """Serialize losslessly to JSON text."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        """Inverse of :meth:`to_json`: ``from_json(r.to_json()) == r``."""
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def fingerprint(self) -> dict:
        """The record with every wall-clock field stripped.

        Two runs of the same configuration are *outcome*-identical when
        their fingerprints are equal — method, graph, config, quality,
        per-round log and environment all match bit for bit; only
        elapsed-seconds measurements (which no two runs share) are
        excluded.  This is the equality the artifact cache's
        warm-equals-cold guarantee is stated in.
        """
        data = self.to_dict()
        data.pop("timings", None)
        # Copies: to_dict() shares the nested dicts with the record.
        if data.get("quality"):
            data["quality"] = {
                k: v for k, v in data["quality"].items()
                if k != "pcg_seconds"
            }
        data["rounds_log"] = [
            {k: v for k, v in entry.items() if k != "seconds"}
            for entry in data["rounds_log"]
        ]
        if data.get("sharding"):
            data["sharding"] = _strip_seconds(data["sharding"])
        return data

    def to_config(self):
        """Reconstruct the method's config dataclass from the record.

        Raises
        ------
        repro.exceptions.GraphError
            When the record carries an option the method no longer
            accepts (e.g. one written by an older release); the message
            names the key.
        """
        from repro.api.registry import get_method

        return get_method(self.method).config_cls.from_dict(self.config)
