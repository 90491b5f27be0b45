"""Shard-parallel sparsification for graphs too big for one run.

The scale-out move suggested by both partition-based preconditioning
and Spielman-Srivastava resistance sampling: cut the graph into
well-separated node blocks ("shards"), sparsify each block
independently, and preserve the cut.  Concretely:

1. **Partition** — recursively bipartition the node set with the
   Fiedler machinery already in :mod:`repro.partitioning` (inverse
   power iteration + an order-statistics split), giving ``shards``
   balanced blocks; disconnected blocks fall back to whole-component
   packing so a component is never cut needlessly.
2. **Sparsify per shard** — run any registered method on each shard's
   induced subgraph through its own
   :class:`~repro.api.SparsifierSession`, so every shard hits the
   artifact/disk cache independently, and shards run concurrently on
   the :func:`~repro.core.parallel.parallel_map` worker pool, sized by
   the ``workers`` knob (results stay bit-identical for every worker
   count).
3. **Stitch** — union the intra-shard sparsifiers with the boundary
   (cut) edges: ``boundary_policy="keep"`` retains every cut edge
   verbatim (spectrally safe; the stitched sparsifier of a connected
   graph is connected), ``"sample"`` keeps a per-component
   connectivity backbone plus a leverage-biased sample of the rest
   (leverage approximated by quotient-graph effective resistances).

Entry points: the ``shards`` / ``boundary_policy`` fields every
:class:`~repro.core.base.BaseSparsifierConfig` carries (so
``repro.sparsify(graph, shards=4)`` and ``repro sparsify --shards 4``
route here automatically), or :func:`sharded_sparsify` directly.
``shards=1`` never enters this module — that path stays byte-identical
to the unsharded code.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import shared_artifact
from repro.core.parallel import parallel_map
from repro.core.sparsifier import SparsifierResult
from repro.exceptions import GraphError
from repro.graph.components import connected_components
from repro.graph.graph import Graph
from repro.utils.rng import as_rng
from repro.utils.timers import Timer

__all__ = [
    "ShardPlan",
    "induced_subgraph",
    "partition_shards",
    "select_boundary_edges",
    "sharded_sparsify",
]

#: Blocks smaller than this are split by node order instead of a
#: Fiedler vector (the eigensolve is meaningless on 2-3 nodes).
_MIN_FIEDLER_NODES = 4


def induced_subgraph(graph: Graph, nodes) -> tuple:
    """The induced subgraph on *nodes*, relabeled to ``0..len-1``.

    Parameters
    ----------
    graph : Graph
        Parent graph.
    nodes : array_like of int
        Node ids to keep (order defines the local numbering).

    Returns
    -------
    (Graph, numpy.ndarray)
        The local subgraph and the parent edge ids of its edges (the
        subgraph's edge ``k`` is the parent's edge ``edge_ids[k]``).
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    local = np.full(graph.n, -1, dtype=np.int64)
    local[nodes] = np.arange(len(nodes))
    inside = (local[graph.u] >= 0) & (local[graph.v] >= 0)
    edge_ids = np.flatnonzero(inside)
    sub = Graph(
        max(len(nodes), 1),
        local[graph.u[edge_ids]],
        local[graph.v[edge_ids]],
        graph.w[edge_ids],
        validate=False,
    )
    return sub, edge_ids


def _component_packed_order(sub: Graph, components: np.ndarray) -> np.ndarray:
    """Local node order that keeps whole components contiguous.

    Components are laid out largest-first (ties by component id), so a
    quota split at any position cuts at most one component — the rest
    are packed whole onto one side, contributing zero cut edges.
    """
    sizes = np.bincount(components)
    rank = np.empty(len(sizes), dtype=np.int64)
    rank[np.argsort(-sizes, kind="stable")] = np.arange(len(sizes))
    return np.lexsort((np.arange(sub.n), rank[components]))


def _block_order(graph: Graph, nodes: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic local ordering along which a block is split.

    Connected blocks of >= 4 nodes are ordered by their Fiedler vector
    (the classic spectral-bisection recipe, computed with the existing
    inverse-power machinery); disconnected blocks pack whole
    components; tiny or edgeless blocks fall back to node-id order.
    """
    sub, _ = induced_subgraph(graph, nodes)
    if sub.edge_count == 0 or len(nodes) < _MIN_FIEDLER_NODES:
        return np.arange(len(nodes))
    count, components = connected_components(sub)
    if count > 1:
        return _component_packed_order(sub, components)
    # Deferred import: repro.partitioning pulls in repro.api, which
    # must not load while repro.core is still initializing.
    from repro.partitioning.fiedler import fiedler_vector

    vector = fiedler_vector(sub, method="direct", seed=seed).vector
    return np.argsort(vector, kind="stable")


def _partition_labels(graph: Graph, shards: int, seed: int) -> np.ndarray:
    """Recursive quota bisection: node -> shard id in ``0..shards-1``."""
    labels = np.zeros(graph.n, dtype=np.int64)
    blocks = [(np.arange(graph.n, dtype=np.int64), 0, shards)]
    while blocks:
        nodes, first, count = blocks.pop()
        if count == 1:
            labels[nodes] = first
            continue
        left = (count + 1) // 2
        right = count - left
        order = _block_order(graph, nodes, seed)
        # Proportional split point, clamped so each side can still host
        # one node per shard it owes.
        split = int(round(len(nodes) * left / count))
        split = min(max(split, left), len(nodes) - right)
        blocks.append((np.sort(nodes[order[:split]]), first, left))
        blocks.append((np.sort(nodes[order[split:]]), first + left, right))
    return labels


class ShardPlan:
    """A sharding of one graph: labels plus derived cut structure.

    Parameters
    ----------
    graph : Graph
        The partitioned graph.
    labels : numpy.ndarray
        Per-node shard id in ``0..shards-1``.
    shards : int
        Number of shards.

    Attributes
    ----------
    shard_nodes : list of numpy.ndarray
        Ascending node ids of each shard (every shard is non-empty).
    boundary_edge_ids : numpy.ndarray
        Parent edge ids whose endpoints live in different shards.
    """

    def __init__(self, graph: Graph, labels, shards: int) -> None:
        self.graph = graph
        self.labels = np.asarray(labels, dtype=np.int64)
        self.shards = int(shards)
        if self.labels.shape != (graph.n,):
            raise GraphError(
                f"labels must have shape ({graph.n},), got {self.labels.shape}"
            )
        if len(self.labels) and (
            self.labels.min() < 0 or self.labels.max() >= self.shards
        ):
            # An out-of-range label would belong to no shard: its edges
            # were neither intra-shard nor boundary and would silently
            # vanish from the stitched sparsifier.
            raise GraphError(
                f"labels must lie in [0, {self.shards}), got range "
                f"[{self.labels.min()}, {self.labels.max()}]"
            )
        self.shard_nodes = [
            np.flatnonzero(self.labels == s) for s in range(self.shards)
        ]
        if any(len(nodes) == 0 for nodes in self.shard_nodes):
            raise GraphError("every shard must contain at least one node")
        self.boundary_edge_ids = np.flatnonzero(
            self.labels[graph.u] != self.labels[graph.v]
        )
        self._subgraphs: dict = {}

    def shard_subgraph(self, shard: int) -> tuple:
        """``(Graph, node_ids, edge_ids)`` of one shard.

        The subgraph uses local numbering ``0..len(node_ids)-1``;
        ``node_ids``/``edge_ids`` map local nodes/edges back to the
        parent graph.  Memoized: the sparsify and stitch phases share
        one extraction per shard.
        """
        if shard not in self._subgraphs:
            nodes = self.shard_nodes[shard]
            sub, edge_ids = induced_subgraph(self.graph, nodes)
            self._subgraphs[shard] = (sub, nodes, edge_ids)
        return self._subgraphs[shard]

    def cut_weight(self) -> float:
        """Total weight of the cut (inter-shard) edges."""
        return float(self.graph.w[self.boundary_edge_ids].sum())

    def summary(self) -> dict:
        """JSON-native overview: shard sizes and cut statistics."""
        return {
            "shards": self.shards,
            "shard_nodes": [int(len(n)) for n in self.shard_nodes],
            "cut_edges": int(len(self.boundary_edge_ids)),
            "cut_weight": self.cut_weight(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = ", ".join(str(len(n)) for n in self.shard_nodes)
        return (
            f"ShardPlan(shards={self.shards}, nodes=[{sizes}], "
            f"cut_edges={len(self.boundary_edge_ids)})"
        )


def partition_shards(graph: Graph, shards: int, *, seed: int = 0,
                     artifacts=None) -> ShardPlan:
    """Partition *graph* into ``shards`` blocks by recursive bisection.

    Each bisection orders the block along its Fiedler vector (via
    :func:`repro.partitioning.fiedler.fiedler_vector`) and splits at
    the quota point, so uneven shard counts (3, 5, ...) work too.
    Deterministic for fixed ``(graph, shards, seed)``.

    Parameters
    ----------
    graph : Graph
        Graph to partition.
    shards : int
        Number of blocks, ``1 <= shards <= graph.n``.
    seed : int
        Seed of the inverse-power iterations.
    artifacts : repro.core.base.ArtifactStore, optional
        Session store: labels are cached under kind ``"shard_labels"``
        (and persisted when a disk cache is attached), so warm runs
        skip the recursive eigensolves.

    Returns
    -------
    ShardPlan
    """
    shards = int(shards)
    if shards < 1:
        raise GraphError(f"shards must be >= 1, got {shards}")
    if shards > graph.n:
        raise GraphError(
            f"cannot cut a {graph.n}-node graph into {shards} shards"
        )
    labels = shared_artifact(
        artifacts, "shard_labels", (shards, int(seed)),
        lambda: _partition_labels(graph, shards, int(seed)),
    )
    return ShardPlan(graph, labels, shards)


def _quotient_resistances(graph: Graph, plan: ShardPlan,
                          lo: np.ndarray, hi: np.ndarray,
                          weights: np.ndarray) -> np.ndarray:
    """Effective resistance between shard supernodes, per cut edge.

    Contract each shard to one node, keep the total inter-shard weight
    per pair, and solve the tiny (``shards x shards``) quotient
    Laplacian densely — a cheap stand-in for each cut edge's true
    effective resistance, good enough to bias the boundary sample
    toward spectrally critical cuts.
    """
    k = plan.shards
    adjacency = np.zeros((k, k))
    np.add.at(adjacency, (lo, hi), weights)
    adjacency += adjacency.T
    quotient = np.diag(adjacency.sum(axis=1)) - adjacency
    pinv = np.linalg.pinv(quotient)
    return pinv[lo, lo] + pinv[hi, hi] - 2.0 * pinv[lo, hi]


def select_boundary_edges(graph: Graph, plan: ShardPlan,
                          policy: str = "keep",
                          edge_fraction: float = 0.10,
                          seed: int = 0) -> np.ndarray:
    """Cut edges the stitched sparsifier keeps, per boundary policy.

    ``"keep"`` returns every cut edge.  ``"sample"`` returns a
    connectivity backbone — the heaviest cut edge between every pair
    of *shard components* (so no component that was attached through
    the cut comes loose) — plus ``round(edge_fraction * cut_edges)``
    further edges drawn without replacement with probability biased by
    ``w_e * R_quotient(e)`` (Spielman-Srivastava leverage, with the
    resistance approximated on the shard quotient graph).  Seeded and
    deterministic.

    Returns
    -------
    numpy.ndarray
        Sorted parent edge ids.
    """
    ids = plan.boundary_edge_ids
    if policy == "keep" or len(ids) == 0:
        return ids
    if policy != "sample":
        raise GraphError(f"unknown boundary_policy {policy!r}")
    labels = plan.labels
    weights = graph.w[ids]
    shard_u = labels[graph.u[ids]]
    shard_v = labels[graph.v[ids]]
    lo = np.minimum(shard_u, shard_v)
    hi = np.maximum(shard_u, shard_v)

    # Connectivity backbone at (shard, internal component) granularity:
    # keeping one edge per *shard* pair could strand a shard component
    # whose only attachment to the rest of the graph crosses the cut.
    super_label = np.empty(graph.n, dtype=np.int64)
    offset = 0
    for shard in range(plan.shards):
        sub, nodes, _ = plan.shard_subgraph(shard)
        count, components = connected_components(sub)
        super_label[nodes] = offset + components
        offset += count
    pair_lo = np.minimum(super_label[graph.u[ids]], super_label[graph.v[ids]])
    pair_hi = np.maximum(super_label[graph.u[ids]], super_label[graph.v[ids]])
    pair_key = pair_lo * offset + pair_hi
    # Heaviest edge per pair, ties broken by smallest edge id.
    order = np.lexsort((np.arange(len(ids)), -weights, pair_key))
    _, first = np.unique(pair_key[order], return_index=True)
    backbone = np.zeros(len(ids), dtype=bool)
    backbone[order[first]] = True

    budget = int(round(edge_fraction * len(ids)))
    if budget > 0:
        resistances = np.maximum(
            _quotient_resistances(graph, plan, lo, hi, weights), 1e-300
        )
        leverage = weights * resistances
        # Gumbel top-k == sampling without replacement with probability
        # proportional to leverage; one seeded draw keeps it exact.
        rng = as_rng(int(seed))
        keys = np.log(leverage) + rng.gumbel(size=len(ids))
        keys[backbone] = -np.inf
        ranked = np.argsort(-keys, kind="stable")
        backbone[ranked[:budget]] = True
    return ids[np.flatnonzero(backbone)]


def sharded_sparsify(graph: Graph, method: str = "proposed", config=None, *,
                     artifacts=None, **options) -> SparsifierResult:
    """Partition, sparsify per shard, stitch — any registered method.

    This is what :func:`repro.sparsify` routes to whenever
    ``config.shards > 1``.  Each shard runs through its own
    :class:`~repro.api.SparsifierSession`; when *artifacts* carries a
    persistent disk cache, the per-shard sessions attach to the same
    cache root (shard subgraphs are content-addressed, so shard
    artifacts warm up independently).  Shards execute concurrently on
    the fork worker pool when the method's ``workers`` knob asks for
    parallelism — the stitched result is bit-identical for every
    worker count.

    Parameters
    ----------
    graph : Graph
        The graph to sparsify.
    method : str
        Registry name of the per-shard sparsifier.
    config : optional
        Ready-made config (mutually exclusive with keyword options);
        ``config.shards`` drives the partition.
    artifacts : repro.core.base.ArtifactStore, optional
        Parent session store: caches the partition labels (and the
        disk-cache root is inherited by the per-shard sessions).
    **options
        Config fields by keyword, e.g. ``shards=4, workers=4``.

    Returns
    -------
    SparsifierResult
        Stitched sparsifier over the *parent* graph, with per-shard
        diagnostics in ``result.sharding`` and shard-tagged entries in
        ``result.rounds_log``.
    """
    # Deferred: repro.api depends on repro.core, not the reverse.
    from repro.api.registry import get_method
    from repro.api.session import SparsifierSession

    spec = get_method(method)
    cfg = spec.make_config(config, **options)
    shards = int(cfg.shards)
    if shards <= 1:
        from repro.api.session import sparsify

        return sparsify(graph, method, cfg, artifacts=artifacts)

    total_timer = Timer()
    with total_timer:
        parent_restore = (
            artifacts.restore_seconds if artifacts is not None else 0.0
        )
        partition_timer = Timer()
        with partition_timer:
            plan = partition_shards(
                graph, shards, seed=int(cfg.seed), artifacts=artifacts
            )
        # The shard runs are one-piece by construction; the worker
        # budget sizes the shard pool (results do not depend on it).
        inner = cfg.replace(shards=1)
        workers = int(getattr(cfg, "workers", 1))
        disk = getattr(artifacts, "disk", None)
        cache_root = disk.root if disk is not None else None
        shard_inputs = [plan.shard_subgraph(s) for s in range(shards)]

        # One session per shard, memoized in the parent store (kind
        # "shard_session", never persisted — it embeds the shard graph;
        # its own artifacts persist through its own disk cache), so a
        # serial method/fraction sweep over one graph re-derives each
        # shard's tree/factor/sketches once, not once per cell.  Forked
        # shard runs fill a copy-on-write copy that dies with the
        # worker; cross-call reuse then comes from the disk layer.
        def _shard_session(shard: int) -> SparsifierSession:
            sub = shard_inputs[shard][0]
            return shared_artifact(
                artifacts, "shard_session",
                (shards, int(cfg.seed), shard,
                 str(cache_root) if cache_root is not None else None),
                lambda: SparsifierSession(
                    sub, label=f"shard-{shard}", cache_dir=cache_root
                ),
            )

        sessions = [_shard_session(shard) for shard in range(shards)]

        def _run_shard(shard: int) -> dict:
            result = sessions[shard].sparsify(method, inner)
            return {
                "mask": result.edge_mask,
                "tree": result.tree_edge_ids,
                "recovered": result.recovered_edge_ids,
                "log": result.rounds_log,
                "seconds": float(result.setup_seconds),
                "restore": float(result.restore_seconds),
            }

        shard_results = parallel_map(_run_shard, shards, workers=workers)

        stitch_timer = Timer()
        with stitch_timer:
            edge_mask = np.zeros(graph.edge_count, dtype=bool)
            tree_ids, recovered_ids, rounds_log, per_shard = [], [], [], []
            for shard, outcome in enumerate(shard_results):
                _, nodes, edge_ids = shard_inputs[shard]
                kept = np.flatnonzero(outcome["mask"])
                edge_mask[edge_ids[kept]] = True
                tree_ids.append(edge_ids[np.asarray(
                    outcome["tree"], dtype=np.int64
                )])
                recovered_ids.append(edge_ids[np.asarray(
                    outcome["recovered"], dtype=np.int64
                )])
                for entry in outcome["log"]:
                    rounds_log.append({"shard": shard, **entry})
                per_shard.append({
                    "shard": shard,
                    "nodes": int(len(nodes)),
                    "intra_edges": int(len(edge_ids)),
                    "kept_edges": int(len(kept)),
                    "sparsify_seconds": outcome["seconds"],
                    "restore_seconds": outcome["restore"],
                })
            boundary_kept = select_boundary_edges(
                graph, plan, policy=cfg.boundary_policy,
                edge_fraction=float(cfg.edge_fraction),
                seed=int(cfg.seed),
            )
            edge_mask[boundary_kept] = True

        cut_ids = plan.boundary_edge_ids
        sharding = {
            "shards": shards,
            "boundary_policy": cfg.boundary_policy,
            "partition_seconds": float(partition_timer.elapsed),
            "stitch_seconds": float(stitch_timer.elapsed),
            "cut": {
                "edges": int(len(cut_ids)),
                "weight": float(graph.w[cut_ids].sum()),
                "kept_edges": int(len(boundary_kept)),
                "kept_weight": float(graph.w[boundary_kept].sum()),
            },
            "per_shard": per_shard,
        }
        restore = sum(entry["restore_seconds"] for entry in per_shard)
        if artifacts is not None:
            restore += artifacts.restore_seconds - parent_restore

    result = SparsifierResult(
        graph=graph,
        edge_mask=edge_mask,
        tree_edge_ids=np.concatenate(tree_ids).astype(np.int64, copy=False),
        recovered_edge_ids=np.concatenate(recovered_ids).astype(
            np.int64, copy=False
        ),
        config=cfg,
        rounds_log=rounds_log,
        restore_seconds=float(restore),
        sharding=sharding,
    )
    result.setup_seconds = total_timer.elapsed
    return result
