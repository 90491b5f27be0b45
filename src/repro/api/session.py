"""The unified sparsification entry point and the per-graph session.

:func:`sparsify` is the single front door to every registered method::

    from repro import sparsify
    result = sparsify(graph, method="grass", edge_fraction=0.05, rounds=3)

and :class:`SparsifierSession` is the shape of every benchmark and of a
service handling repeated requests on one graph: it pins the graph,
reuses expensive artifacts (spanning tree, rooted forest,
regularization shift, full-graph Laplacian/Cholesky factor, tree-phase
criticality, JL resistance sketches) across calls through an
:class:`~repro.core.base.ArtifactStore`, and emits
:class:`~repro.api.records.RunRecord` objects for machine-readable
result trails.  Artifact reuse is keyed by everything that determines
the artifact, so warm results are bit-identical to cold runs.
"""

from __future__ import annotations

from repro.api.records import RunRecord
from repro.api.registry import get_method
from repro.core.base import ArtifactStore
from repro.core.metrics import evaluate_sparsifier
from repro.utils.timers import Timer

__all__ = ["sparsify", "SparsifierSession"]


def sparsify(graph, method: str = "proposed", config=None, *,
             artifacts=None, **options):
    """Sparsify *graph* with any registered method.

    Parameters
    ----------
    graph : repro.graph.Graph
        The graph to sparsify.
    method : str
        Registry name: ``"proposed"``, ``"grass"``, ``"fegrass"``,
        ``"er_sampling"``, or anything registered via
        :func:`repro.api.register_sparsifier`.
    config : optional
        A ready-made config dataclass instance for the method
        (mutually exclusive with keyword options).
    artifacts : repro.core.base.ArtifactStore, optional
        Shared artifact store (a :class:`SparsifierSession` passes its
        own); reuse never changes results.
    **options
        Fields of the method's config dataclass.  Unknown or
        inapplicable options raise
        :class:`~repro.exceptions.UnknownOptionError` instead of being
        silently ignored.

    Returns
    -------
    repro.core.SparsifierResult
        The method's result; its ``setup_seconds`` is the wall clock of
        the whole run.  With ``shards > 1`` the run routes through the
        shard-parallel pipeline (:mod:`repro.core.sharding`):
        partition, per-shard sparsification, boundary stitch — and the
        result carries per-shard diagnostics in ``result.sharding``.
    """
    spec = get_method(method)
    cfg = spec.make_config(config, **options)
    restore_before = (
        artifacts.restore_seconds if artifacts is not None else 0.0
    )
    timer = Timer()
    with timer:
        if int(getattr(cfg, "shards", 1)) > 1:
            from repro.core.sharding import sharded_sparsify

            result = sharded_sparsify(graph, method, cfg,
                                      artifacts=artifacts)
        else:
            result = spec.runner(graph, cfg, artifacts=artifacts)
    result.setup_seconds = timer.elapsed
    if artifacts is not None:
        # Attribute this run's share of disk-cache I/O so RunRecords
        # can split warm-run setup into restore vs compute.
        result.restore_seconds += artifacts.restore_seconds - restore_before
    return result


class SparsifierSession:
    """A sticky per-graph context that caches shared artifacts.

    Examples
    --------
    >>> from repro import SparsifierSession, grid2d
    >>> session = SparsifierSession(grid2d(12, 12, seed=0), label="grid")
    >>> sweep = [session.sparsify(edge_fraction=f) for f in (0.05, 0.10)]
    >>> session.stats()["hits"]["tree"] >= 1   # spanning tree reused
    True

    Parameters
    ----------
    graph : repro.graph.Graph
        The graph every call in this session operates on.
    label : str
        Identifier recorded in emitted :class:`RunRecord` objects.
    persistent : bool
        Attach the content-addressed on-disk cache
        (:class:`~repro.core.diskcache.DiskCache`) so artifacts survive
        the process: a warm session in a fresh process loads the
        spanning tree, tree-phase scores, resistance sketches, … from
        ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``) instead of
        rebuilding them — with bit-identical results.
    cache_dir : str or pathlib.Path, optional
        Explicit cache root; implies ``persistent=True``.
    """

    def __init__(self, graph, label: str = "graph", *,
                 persistent: bool = False, cache_dir=None) -> None:
        self.graph = graph
        self.label = label
        disk = None
        if persistent or cache_dir is not None:
            from repro.core.diskcache import DiskCache

            disk = DiskCache(graph, root=cache_dir)
        self.artifacts = ArtifactStore(disk=disk)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def sparsify(self, method: str = "proposed", config=None, **options):
        """Run one method on the session graph; reuse warm artifacts."""
        return sparsify(
            self.graph, method, config,
            artifacts=self.artifacts, **options,
        )

    def run(self, method: str = "proposed", config=None, *,
            evaluate: bool = True, rtol: float = 1e-3,
            **options) -> RunRecord:
        """Sparsify and emit a :class:`RunRecord`.

        With ``evaluate=True`` (default) the sparsifier is scored with
        :func:`~repro.core.metrics.evaluate_sparsifier` (kappa, PCG
        iterations/time) and the record carries the quality block.
        """
        result = self.sparsify(method, config, **options)
        quality = None
        evaluate_seconds = None
        if evaluate:
            timer = Timer()
            with timer:
                quality = evaluate_sparsifier(
                    self.graph, result.sparsifier, rtol=rtol,
                    seed=result.config.seed,
                )
            evaluate_seconds = timer.elapsed
        return RunRecord.from_result(
            result, method=method, label=self.label,
            quality=quality, evaluate_seconds=evaluate_seconds,
        )

    def sweep(self, methods=("proposed",), fractions=(0.10,), *,
              evaluate: bool = True, rtol: float = 1e-3,
              **options) -> list:
        """Run a method x fraction grid and return the RunRecords.

        This is the benchmark shape the session exists for: the
        spanning tree, forest, shift, full-graph factor and tree-phase
        scores are derived once and shared by every cell of the grid.
        """
        records = []
        for method in methods:
            for fraction in fractions:
                records.append(self.run(
                    method, evaluate=evaluate, rtol=rtol,
                    edge_fraction=fraction, **options,
                ))
        return records

    # ------------------------------------------------------------------
    # cache management
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Artifact-cache hit/miss counters (see ``ArtifactStore.stats``)."""
        return self.artifacts.stats()

    def clear(self) -> None:
        """Drop every cached artifact (results are unaffected)."""
        self.artifacts.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SparsifierSession(label={self.label!r}, "
            f"nodes={self.graph.n}, edges={self.graph.edge_count}, "
            f"cached_artifacts={len(self.artifacts)})"
        )
