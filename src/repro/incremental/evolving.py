"""Incremental sparsification for evolving graphs.

A production service absorbing edge-stream traffic sees *mutations* of
a graph it already sparsified, not fresh graphs.  Rebuilding from
scratch on every batch discards exactly the state the trace-reduction
loop spent its time on: the spanning forest and the
effective-resistance estimates.  Both admit local updates under small
edge batches — leverage scores ``w_e * R_eff(e)`` change materially
only near the mutated endpoints (Spielman & Srivastava,
arXiv:0803.0929) — so :class:`EvolvingSparsifier` keeps them alive:

* the spanning forest is repaired by one maximum spanning forest over
  a strict edge order — surviving forest edges first, then edges near
  the mutations, then (only after a forest-edge deletion) the rest — so
  deleted tree edges get a local-first replacement search;
* the touched region is the locality engine — only nodes within
  ``locality_beta`` hops of a mutated endpoint, in the old *or* new
  adjacency, are considered changed; one union BFS over the new
  adjacency finds them all (:func:`~repro.graph.bfs.ball_union`);
* off-tree kept edges are re-ranked only inside that touched
  neighborhood, by the tree-resistance leverage surrogate
  ``w_e * R_T(e)`` (one batched LCA query per mutation batch).

A drift monitor accumulates a conservative condition-number factor for
every change the local pass could *not* compensate; when the estimate
exceeds ``drift_budget`` the sparsifier rebuilds from scratch — and a
forced :meth:`~EvolvingSparsifier.rebuild` is fingerprint-identical to
a direct :func:`repro.sparsify` on the mutated graph.  Every batch is
logged in a :class:`~repro.incremental.delta.DeltaRecord`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import asdict

import numpy as np

from repro.api.records import RunRecord
from repro.api.registry import get_method, sparsifier_methods
from repro.api.session import SparsifierSession
from repro.exceptions import IncrementalError
from repro.graph.bfs import ball_union
from repro.graph.graph import Graph
from repro.incremental.delta import DeltaRecord, EdgeBatch, normalize_batch
from repro.tree.lca import batch_tree_resistances
from repro.tree.rooted import RootedForest
from repro.tree.spanning import effective_weights, maximum_spanning_forest
from repro.utils.timers import Timer

__all__ = ["EvolvingSparsifier", "sparsify_delta"]


class EvolvingSparsifier:
    """A sparsifier that follows a graph through edge mutations.

    Owns a base :class:`~repro.api.session.SparsifierSession` (the full
    trace-reduction build) plus delta state: the current edge map, the
    maintained spanning forest and the kept-edge set.
    :meth:`apply_batch` folds one batch of insertions/deletions into
    all of them locally; :meth:`rebuild` (or the drift monitor) falls
    back to the full pipeline.

    Parameters
    ----------
    graph : repro.graph.Graph
        The initial graph.
    method : str
        A registered method with the ``supports_incremental``
        capability (``"proposed"`` or ``"er_sampling"``);
        :class:`~repro.exceptions.IncrementalError` otherwise.
    config : optional
        Ready-made config dataclass (mutually exclusive with options).
    drift_budget : float
        Rebuild when the estimated condition-number inflation of the
        maintained sparsifier (vs a from-scratch run) exceeds this
        factor.  Must be ``> 1``.  The estimate is a *conservative
        product of per-change bounds* (each uncompensated change
        charges ``1 + w_e * R(e)`` with a path-resistance upper bound
        on ``R``), so it typically overstates the measured kappa ratio
        by a wide margin; budgets are set on the bound, not on measured
        kappa.  Deletions of heavy, poorly-bypassed edges dominate the
        estimate — delete-heavy streams rebuild more often by design.
    locality_beta : int
        Radius of the touched neighborhood: a node is re-examined when
        a mutated endpoint lies within this many hops in the old or new
        adjacency.
    label : str
        Graph label stamped into emitted records.
    persistent, cache_dir :
        Forwarded to the base session's on-disk artifact cache.
    **options
        Fields of the method's config dataclass.

    Examples
    --------
    >>> from repro import grid2d
    >>> from repro.incremental import EvolvingSparsifier
    >>> ev = EvolvingSparsifier(grid2d(8, 8, seed=0), edge_fraction=0.2)
    >>> entry = ev.apply_batch(inserts=[(0, 27, 1.0)], deletes=[(0, 1)])
    >>> entry["rebuild"], ev.record.batches
    (False, 1)
    """

    def __init__(self, graph: Graph, method: str = "proposed", config=None,
                 *, drift_budget: float = 32.0, locality_beta: int = 2,
                 label: str = "graph", persistent: bool = False,
                 cache_dir=None, **options) -> None:
        spec = get_method(method)
        if not spec.supports_incremental:
            capable = sorted(
                name for name, other in sparsifier_methods().items()
                if other.supports_incremental
            )
            raise IncrementalError(
                f"method {method!r} does not support incremental updates; "
                "methods with the supports_incremental capability: "
                f"{', '.join(capable)}"
            )
        if not drift_budget > 1.0:
            raise IncrementalError(
                f"drift_budget must be > 1, got {drift_budget!r}"
            )
        if locality_beta < 1:
            raise IncrementalError(
                f"locality_beta must be >= 1, got {locality_beta!r}"
            )
        self.method = method
        self.config = spec.make_config(config, **options)
        self.drift_budget = float(drift_budget)
        self.locality_beta = int(locality_beta)
        self.label = label
        self._persistent = bool(persistent)
        self._cache_dir = cache_dir

        self.n = graph.n
        self._edges: dict = {
            (int(u), int(v)): float(w)
            for u, v, w in zip(graph.u, graph.v, graph.w)
        }
        self.graph = self._materialize()
        self.record = DeltaRecord(
            method=method,
            label=label,
            config=_plain(asdict(self.config)),
            drift_budget=self.drift_budget,
            graph={"nodes": self.graph.n, "edges": self.graph.edge_count},
        )
        self._kept: set = set()
        self._tree: set = set()
        self._offtree_target = 0
        self._log_drift = 0.0
        self.base_record = self._full_build()

    # ------------------------------------------------------------------
    # state accessors
    # ------------------------------------------------------------------
    @property
    def sparsifier(self) -> Graph:
        """The maintained sparsifier ``P`` as a graph on all ``n`` nodes."""
        return self.graph.subgraph(self._edge_ids(self._kept))

    @property
    def drift_estimate(self) -> float:
        """Estimated condition-number inflation since the last rebuild."""
        return math.exp(self._log_drift)

    @property
    def forest_edges(self) -> tuple:
        """Sorted ``(u, v)`` pairs of the maintained spanning forest."""
        return tuple(sorted(self._tree))

    def summary(self) -> dict:
        """One JSON-ready dict of the current evolving state."""
        return {
            "method": self.method,
            "label": self.label,
            "nodes": self.n,
            "edges": self.graph.edge_count,
            "sparsifier_edges": len(self._kept),
            "forest_edges": len(self._tree),
            "batches": self.record.batches,
            "rebuilds": self.record.rebuilds,
            "drift_estimate": self.drift_estimate,
            "drift_budget": self.drift_budget,
        }

    # ------------------------------------------------------------------
    # the full pipeline (base build / rebuild fallback)
    # ------------------------------------------------------------------
    def _materialize(self) -> Graph:
        """The current edge map as a canonical ``(u, v)``-sorted graph."""
        return Graph.from_edges(
            self.n,
            [(u, v, w) for (u, v), w in sorted(self._edges.items())],
        )

    def _edge_ids(self, pairs) -> np.ndarray:
        """Sorted ids of ``(u, v)`` pairs in the materialized graph.

        The graph is materialized in ``(u, v)`` order, so its
        ``u * n + v`` keys are sorted and one ``searchsorted`` finds
        every pair.
        """
        graph = self.graph
        pairs = np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2)
        keys = graph.u * self.n + graph.v
        wanted = pairs[:, 0] * self.n + pairs[:, 1]
        return np.sort(np.searchsorted(keys, wanted))

    def _full_build(self) -> RunRecord:
        """Run the registered method from scratch on the current graph.

        Resets the forest, the kept set, the off-tree budget and the
        drift estimate.  The emitted
        :class:`~repro.api.records.RunRecord` is fingerprint-identical
        to a direct :func:`repro.sparsify` of the current graph.
        """
        session = SparsifierSession(
            self.graph, self.label,
            persistent=self._persistent, cache_dir=self._cache_dir,
        )
        result = session.sparsify(self.method, self.config)
        record = RunRecord.from_result(
            result, method=self.method, label=self.label
        )
        u, v = self.graph.u, self.graph.v
        kept_ids = np.nonzero(result.edge_mask)[0]
        self._kept = {
            (int(u[e]), int(v[e])) for e in kept_ids
        }
        self._tree = {
            (int(u[e]), int(v[e])) for e in result.tree_edge_ids
        }
        self._offtree_target = len(self._kept) - len(self._tree)
        self._log_drift = 0.0
        return record

    def rebuild(self) -> RunRecord:
        """Force a from-scratch rebuild on the current graph.

        Returns the :class:`~repro.api.records.RunRecord`, whose
        :meth:`~repro.api.records.RunRecord.fingerprint` equals a
        direct ``repro.sparsify(ev.graph, ...)`` run's.  Logged as a
        ``rebuild`` entry in :attr:`record`.
        """
        timer = Timer()
        with timer:
            record = self._full_build()
        self.base_record = record
        self.record.append({
            "inserted": 0,
            "deleted": 0,
            "touched_nodes": 0,
            "reranked_edges": 0,
            "forest_replacements": 0,
            "kept_added": 0,
            "kept_dropped": 0,
            "graph_edges": self.graph.edge_count,
            "sparsifier_edges": len(self._kept),
            "drift_estimate": self.drift_estimate,
            "rebuild": True,
            "seconds": timer.elapsed,
        })
        return record

    # ------------------------------------------------------------------
    # the delta path
    # ------------------------------------------------------------------
    def apply_batch(self, inserts=(), deletes=(), *,
                    batch: dict | None = None) -> dict:
        """Apply one batch of edge mutations and update the sparsifier.

        Deletions are applied before insertions (so delete-then-insert
        re-weights an edge in one batch).  Deleting an absent edge or
        inserting an existing one raises
        :class:`~repro.exceptions.IncrementalError`; the graph is not
        modified on a rejected batch.

        Returns the per-batch :class:`DeltaRecord` entry, including
        ``rebuild=True`` when the drift monitor fell back to the full
        pipeline.
        """
        eb = normalize_batch(inserts, deletes, batch=batch)
        timer = Timer()
        with timer:
            entry = self._apply(eb)
        entry["seconds"] = timer.elapsed
        return self.record.append(entry)

    def _apply(self, eb: EdgeBatch) -> dict:
        self._check_batch(eb)
        deleted_kept = [
            (pair, self._edges[pair])
            for pair in eb.deletes if pair in self._kept
        ]
        tree_deleted = any(pair in self._tree for pair in eb.deletes)
        for pair in eb.deletes:
            del self._edges[pair]
            self._kept.discard(pair)
            self._tree.discard(pair)
        for u, v, w in eb.inserts:
            self._edges[(u, v)] = w
        self.graph = self._materialize()

        touched = np.asarray(eb.touched_nodes, dtype=np.int64)
        region = self._touched_region(touched)
        replacements = self._repair_forest(region, tree_deleted)
        inserted_pairs = {(u, v) for u, v, _ in eb.inserts}
        reranked, added, dropped, displaced, scores = self._rerank(
            region, inserted_pairs
        )
        self._accumulate_drift(eb, deleted_kept, dropped, scores)

        # The entry logs the estimate that made the rebuild decision;
        # a rebuild resets the live estimate back to 1.
        drift_at_batch = self.drift_estimate
        rebuilt = False
        if drift_at_batch > self.drift_budget:
            self.base_record = self._full_build()
            rebuilt = True
        return {
            "inserted": len(eb.inserts),
            "deleted": len(eb.deletes),
            "touched_nodes": len(region),
            "reranked_edges": reranked,
            "forest_replacements": replacements,
            "kept_added": len(added),
            "kept_dropped": len(dropped) + len(displaced),
            "graph_edges": self.graph.edge_count,
            "sparsifier_edges": len(self._kept),
            "drift_estimate": drift_at_batch,
            "rebuild": rebuilt,
        }

    def _check_batch(self, eb: EdgeBatch) -> None:
        """Validate a normalized batch against the current edge map."""
        for u, v, _ in eb.inserts:
            if not (0 <= u and v < self.n):
                raise IncrementalError(
                    f"edge ({u}, {v}) out of range for n={self.n}"
                )
        for pair in eb.deletes:
            if pair not in self._edges:
                raise IncrementalError(
                    f"cannot delete absent edge {pair}"
                )
        deleted = set(eb.deletes)
        for u, v, _ in eb.inserts:
            if (u, v) in self._edges and (u, v) not in deleted:
                raise IncrementalError(
                    f"edge ({u}, {v}) already exists; delete it first to "
                    "re-weight"
                )

    def _touched_region(self, touched: np.ndarray) -> np.ndarray:
        """Nodes whose local state a batch may have changed.

        A node is affected iff a mutated endpoint lies within
        ``locality_beta`` hops of it in the old **or** the new adjacency.
        *touched* holds both endpoints of every deleted edge, so the old
        adjacency adds no node (``docs/architecture.md``, "Touched
        region of the delta path"): one union BFS from the touched nodes
        in the new adjacency finds them all.  Returns the sorted node
        ids.
        """
        indptr, neighbors, _ = self.graph.adjacency()
        return np.flatnonzero(
            ball_union(indptr, neighbors, touched, self.locality_beta))

    def _repair_forest(self, region: np.ndarray, tree_deleted: bool) -> int:
        """Restore the spanning forest after a batch, local-first.

        One maximum spanning forest over a strict edge order: the
        surviving forest edges, then the non-forest edges incident to
        the touched *region* (by descending feGRASS effective weight,
        ties on ``(u, v)``), then — only when a tree edge was deleted —
        every other edge by the same key.  Under a strict order the
        forest is unique, so it is the one Kruskal's algorithm builds
        walking that order: every surviving edge plus the replacements
        counted here.  Insertions can only ever *add* forest edges
        between previously separate components, and those are always
        local.
        """
        graph = self.graph
        forest = self._edge_ids(self._tree)
        in_forest = np.zeros(graph.edge_count, dtype=bool)
        in_forest[forest] = True
        local = np.isin(graph.u, region) | np.isin(graph.v, region)
        # The materialized graph is (u, v)-sorted: edge ids break ties.
        by_key = np.argsort(-effective_weights(graph), kind="stable")
        by_key = by_key[~in_forest[by_key]]
        ranked = [forest, by_key[local[by_key]]]
        if tree_deleted:
            # A deleted tree edge's replacement may live outside the
            # locality radius; the completion picks nothing when the
            # local edges already reconnected everything.
            ranked.append(by_key[~local[by_key]])
        order = np.concatenate(ranked)
        picked = order[maximum_spanning_forest(
            graph.subgraph(order), key=-np.arange(len(order), dtype=float)
        )]
        fresh = picked[~in_forest[picked]]
        self._tree.update(zip(graph.u[fresh].tolist(),
                              graph.v[fresh].tolist()))
        self._kept.update(self._tree)
        return len(fresh)

    def _rerank(self, region: np.ndarray, inserted_pairs: set):
        """Re-rank off-tree edges inside the touched region.

        Scores every non-forest edge with an endpoint in *region* by
        the leverage surrogate ``w_e * R_T(e)`` (tree resistances from
        one batched LCA query) and adjusts the kept set toward
        the off-tree budget of the last full build: top-up with the
        best unkept local edges, trim the worst kept local edges, and
        swap in inserted edges that beat a kept local edge.  Only
        *mutation-caused* changes move the kept set — surviving edges
        are never displaced by one another (their base ranking came
        from the full trace-reduction run, which the tree-resistance
        surrogate must not relitigate).

        Returns ``(scored_count, added_pairs, dropped_pairs,
        displaced_pairs, scores)`` where *scores* maps local ``(u, v)``
        pairs to their leverage; *displaced* pairs left through a swap
        (compensated by the incoming edge), *dropped* pairs through a
        trim (charged to the drift monitor).
        """
        if len(region) == 0:
            return 0, [], [], [], {}
        graph = self.graph
        forest = RootedForest(graph, self._edge_ids(self._tree))
        self._forest = forest
        u_arr, v_arr, w_arr = graph.u, graph.v, graph.w
        tree_mask = np.zeros(graph.edge_count, dtype=bool)
        tree_mask[forest.edge_ids] = True
        local = np.nonzero(
            (np.isin(u_arr, region) | np.isin(v_arr, region)) & ~tree_mask
        )[0]
        if len(local) == 0:
            return 0, [], [], [], {}
        resist, _ = batch_tree_resistances(
            forest, u_arr[local], v_arr[local]
        )
        scores = {
            (int(u_arr[e]), int(v_arr[e])): float(w_arr[e] * resist[k])
            for k, e in enumerate(local)
        }

        added, dropped = [], []
        offtree = len(self._kept) - len(self._tree)
        if offtree < self._offtree_target:
            candidates = sorted(
                (p for p in scores if p not in self._kept),
                key=lambda p: (-scores[p], p),
            )
            for pair in candidates[: self._offtree_target - offtree]:
                self._kept.add(pair)
                added.append(pair)
        elif offtree > self._offtree_target:
            droppable = sorted(
                (p for p in scores
                 if p in self._kept and p not in self._tree),
                key=lambda p: (scores[p], p),
            )
            for pair in droppable[: offtree - self._offtree_target]:
                self._kept.discard(pair)
                dropped.append(pair)
        # Swap pass: a freshly inserted edge that beats a kept local
        # edge displaces it.  This is what makes a high-leverage
        # insertion *compensated* — it enters the sparsifier instead of
        # being charged to the drift monitor, and the exchange itself
        # is quality-neutral-or-better (incoming leverage strictly
        # exceeds outgoing), so displaced edges are not charged either.
        displaced = []
        kept_local = sorted(
            (p for p in scores if p in self._kept and p not in self._tree),
            key=lambda p: (scores[p], p),
        )
        incoming = sorted(
            (p for p in inserted_pairs
             if p in scores and p not in self._kept),
            key=lambda p: (-scores[p], p),
        )
        for worst, best in zip(kept_local, incoming):
            if scores[best] <= scores[worst]:
                break
            self._kept.discard(worst)
            self._kept.add(best)
            displaced.append(worst)
            added.append(best)
        return len(local), added, dropped, displaced, scores

    def _accumulate_drift(self, eb: EdgeBatch, deleted_kept: list,
                          dropped: list, scores: dict) -> None:
        """Fold this batch's uncompensated changes into the drift log.

        Each change the local pass did not absorb — an inserted edge
        left out of the sparsifier, or a previously kept edge removed —
        inflates the condition number by at most ``1 + w_e * R_eff(e)``
        (rank-one interlacing); tree resistance overestimates effective
        resistance, so the accumulated product is a conservative bound.
        A deleted kept edge whose endpoints fall into different
        components has unbounded leverage and forces a rebuild.
        """
        forest = getattr(self, "_forest", None)
        inserted_pairs = {(u, v) for u, v, _ in eb.inserts}
        charges = []
        for u, v, w in eb.inserts:
            if (u, v) not in self._kept:
                charges.append((u, v, w, scores.get((u, v))))
        for u, v in dropped:
            if (u, v) in inserted_pairs:
                # Already charged above as an uncompensated insertion.
                continue
            charges.append((u, v, self._edges[(u, v)], scores[(u, v)]))
        for (u, v), w in deleted_kept:
            charges.append((u, v, w, None))
        if not charges:
            return
        adjacency = self._kept_adjacency()
        for u, v, w, score in charges:
            leverage = score
            if leverage is None:
                leverage = self._tree_leverage(forest, u, v, w)
            # Any u-v path in the kept subgraph upper-bounds effective
            # resistance, and the best detour is usually far shorter
            # than the forest path (local off-tree kept edges bypass
            # the change), so take the tighter of the two bounds.
            detour = _detour_resistance(adjacency, u, v)
            if detour is not None:
                leverage = (
                    w * detour if leverage is None
                    else min(leverage, w * detour)
                )
            if leverage is None:
                # Endpoints in different components: the change is not
                # spectrally bounded, only a rebuild can tell.
                self._log_drift = math.inf
                return
            self._log_drift += math.log1p(leverage)

    def _kept_adjacency(self) -> dict:
        """Neighbours of each node in the kept subgraph, with ``1/w``
        edge lengths, in the edge map's order."""
        adjacency: dict = {}
        for (a, b), w in self._edges.items():
            if (a, b) not in self._kept:
                continue
            adjacency.setdefault(a, []).append((b, 1.0 / w))
            adjacency.setdefault(b, []).append((a, 1.0 / w))
        return adjacency

    def _tree_leverage(self, forest, u: int, v: int, w: float):
        """``w * R_T(u, v)`` in the current forest, or None across cuts."""
        if forest is None or forest.graph is not self.graph:
            forest = RootedForest(self.graph, self._edge_ids(self._tree))
            self._forest = forest
        if forest.component_labels[u] != forest.component_labels[v]:
            return None
        resist, _ = batch_tree_resistances(
            forest, np.asarray([u]), np.asarray([v])
        )
        return float(w * resist[0])


def _detour_resistance(adjacency: dict, u: int, v: int):
    """Resistance of the best u-v path in a kept-subgraph adjacency.

    Dijkstra with the ``1/w`` edge lengths of
    :meth:`EvolvingSparsifier._kept_adjacency`; series resistance of any
    path upper-bounds the effective resistance between its endpoints.
    Returns ``None`` when no path exists.
    """
    dist = {u: 0.0}
    heap = [(0.0, u)]
    while heap:
        d, node = heapq.heappop(heap)
        if node == v:
            return d
        if d > dist.get(node, math.inf):
            continue
        for nbr, length in adjacency.get(node, ()):
            nd = d + length
            if nd < dist.get(nbr, math.inf):
                dist[nbr] = nd
                heapq.heappush(heap, (nd, nbr))
    return None


def sparsify_delta(graph: Graph, batches=(), method: str = "proposed",
                   config=None, *, drift_budget: float = 32.0,
                   locality_beta: int = 2, label: str = "graph",
                   **options) -> EvolvingSparsifier:
    """Sparsify *graph* and replay a stream of edge batches onto it.

    The facade counterpart of :func:`repro.sparsify` for evolving
    graphs: builds an :class:`EvolvingSparsifier` and applies every
    batch (wire-format dicts — ``{"insert": [[u, v, w], ...],
    "delete": [[u, v], ...]}`` — or :class:`EdgeBatch` instances).

    Returns the evolving sparsifier; the per-batch trail is on
    ``.record`` (a :class:`~repro.incremental.delta.DeltaRecord`) and
    the maintained graph on ``.sparsifier``.

    Examples
    --------
    >>> import repro
    >>> ev = repro.sparsify_delta(
    ...     repro.grid2d(8, 8, seed=0),
    ...     batches=[{"insert": [[0, 27, 1.0]], "delete": [[0, 1]]}],
    ...     edge_fraction=0.2,
    ... )
    >>> ev.record.batches
    1
    """
    evolving = EvolvingSparsifier(
        graph, method, config,
        drift_budget=drift_budget, locality_beta=locality_beta,
        label=label, **options,
    )
    for item in batches:
        if isinstance(item, EdgeBatch):
            evolving.apply_batch(item.inserts, item.deletes)
        else:
            evolving.apply_batch(batch=item)
    return evolving


def _plain(value):
    """Recursively strip numpy scalar types for JSON round-tripping."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, np.generic):
        return value.item()
    return value
