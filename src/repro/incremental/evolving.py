"""Incremental sparsification for evolving graphs.

A production service absorbing edge-stream traffic sees *mutations* of
a graph it already sparsified, not fresh graphs.  Rebuilding from
scratch on every batch discards exactly the state the trace-reduction
loop spent its time on: the spanning forest and the
effective-resistance estimates.  Both admit local updates under small
edge batches — leverage scores ``w_e * R_eff(e)`` change materially
only near the mutated endpoints (Spielman & Srivastava,
arXiv:0803.0929) — so :class:`EvolvingSparsifier` keeps them alive:

* the state is arrays aligned with the ``(u, v)``-sorted graph — edge
  keys and weights plus the kept and forest masks — and a batch
  splices them with one ``searchsorted`` and one merge;
* the spanning forest is repaired by one maximum spanning forest over
  a strict edge order — surviving forest edges first, then edges near
  the mutations, then (only after a forest-edge deletion) the rest — so
  deleted tree edges get a local-first replacement search.  When no
  forest edge was deleted and no insertion joins two forest
  components, that forest is the old one, so the search is skipped and
  the rooted forest is kept from batch to batch;
* the touched region is the locality engine — only nodes within
  ``locality_beta`` hops of a mutated endpoint, in the old *or* new
  adjacency, are considered changed; one union BFS over the new
  graph's edge list finds them all;
* off-tree kept edges are re-ranked only inside that touched
  neighborhood, by the tree-resistance leverage surrogate
  ``w_e * R_T(e)`` (one batched LCA query per mutation batch).

A drift monitor accumulates a conservative condition-number factor for
every change the local pass could *not* compensate; when the estimate
exceeds ``drift_budget`` the sparsifier rebuilds from scratch — and a
forced :meth:`~EvolvingSparsifier.rebuild` is fingerprint-identical to
a direct :func:`repro.sparsify` on the mutated graph.  Every batch is
logged in a :class:`~repro.incremental.delta.DeltaRecord`, with the
seconds of each phase of the batch.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import asdict

import numpy as np

from repro.api.records import RunRecord
from repro.api.registry import get_method, sparsifier_methods
from repro.api.session import SparsifierSession
from repro.exceptions import IncrementalError
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
    trace-reduction build) plus delta state: the current graph, the
    maintained spanning forest and the kept-edge set, as boolean masks
    over the graph's ``(u, v)``-sorted edges.
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
        self.graph = _sorted_graph(graph)
        self._keys = self.graph.u * self.n + self.graph.v
        self.record = DeltaRecord(
            method=method,
            label=label,
            config=_plain(asdict(self.config)),
            drift_budget=self.drift_budget,
            graph={"nodes": self.graph.n, "edges": self.graph.edge_count},
        )
        self._kept = np.zeros(self.graph.edge_count, dtype=bool)
        self._tree = np.zeros(self.graph.edge_count, dtype=bool)
        self._forest = None
        self._offtree_target = 0
        self._log_drift = 0.0
        self.base_record = self._full_build()

    # ------------------------------------------------------------------
    # state accessors
    # ------------------------------------------------------------------
    @property
    def sparsifier(self) -> Graph:
        """The maintained sparsifier ``P`` as a graph on all ``n`` nodes."""
        return self.graph.subgraph(self._kept)

    @property
    def drift_estimate(self) -> float:
        """Estimated condition-number inflation since the last rebuild."""
        return math.exp(self._log_drift)

    @property
    def forest_edges(self) -> tuple:
        """Sorted ``(u, v)`` pairs of the maintained spanning forest."""
        return self._pairs(self._tree)

    @property
    def kept_edges(self) -> tuple:
        """Sorted ``(u, v)`` pairs of the maintained sparsifier."""
        return self._pairs(self._kept)

    def _pairs(self, mask: np.ndarray) -> tuple:
        return tuple(zip(self.graph.u[mask].tolist(),
                         self.graph.v[mask].tolist()))

    def summary(self) -> dict:
        """One JSON-ready dict of the current evolving state."""
        return {
            "method": self.method,
            "label": self.label,
            "nodes": self.n,
            "edges": self.graph.edge_count,
            "sparsifier_edges": int(np.count_nonzero(self._kept)),
            "forest_edges": int(np.count_nonzero(self._tree)),
            "batches": self.record.batches,
            "rebuilds": self.record.rebuilds,
            "drift_estimate": self.drift_estimate,
            "drift_budget": self.drift_budget,
        }

    # ------------------------------------------------------------------
    # the full pipeline (base build / rebuild fallback)
    # ------------------------------------------------------------------
    def _full_build(self) -> RunRecord:
        """Run the registered method from scratch on the current graph.

        Resets the forest, the kept set, the off-tree budget and the
        drift estimate.  The rooted forest is the build's own when the
        session's artifact store holds it (``proposed`` roots its tree
        there); otherwise the first batch that needs it roots it.  The
        emitted :class:`~repro.api.records.RunRecord` is
        fingerprint-identical to a direct :func:`repro.sparsify` of the
        current graph.
        """
        session = SparsifierSession(
            self.graph, self.label,
            persistent=self._persistent, cache_dir=self._cache_dir,
        )
        result = session.sparsify(self.method, self.config)
        record = RunRecord.from_result(
            result, method=self.method, label=self.label
        )
        self._kept = np.array(result.edge_mask, dtype=bool)
        self._tree = np.zeros(self.graph.edge_count, dtype=bool)
        self._tree[result.tree_edge_ids] = True
        self._forest = self._stored_forest(session)
        self._offtree_target = int(np.count_nonzero(self._kept)
                                   - np.count_nonzero(self._tree))
        self._log_drift = 0.0
        return record

    def _stored_forest(self, session: SparsifierSession):
        """The build's :class:`RootedForest` of the maintained forest,
        when the session's store holds one, else None.

        ``proposed`` stores the forest it roots under
        ``("forest", (tree_method,))`` (``core/sparsifier.py``).
        """
        slot = ("forest", (getattr(self.config, "tree_method", None),))
        if slot not in session.artifacts:
            return None
        forest = session.artifacts.get(*slot, build=None)
        if not np.array_equal(forest.edge_ids, np.flatnonzero(self._tree)):
            return None
        return forest

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
            "sparsifier_edges": int(np.count_nonzero(self._kept)),
            "drift_estimate": self.drift_estimate,
            "rebuild": True,
            "seconds": timer.elapsed,
            "phases": {"rebuild_seconds": timer.elapsed},
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
        pipeline, and ``phases``: the seconds of each step of the batch
        (``check``, ``materialize``, ``region``, ``forest``,
        ``rerank``, ``drift``, ``rebuild``, as ``*_seconds`` keys),
        which add up to ``seconds``.
        """
        eb = normalize_batch(inserts, deletes, batch=batch)
        laps = _Laps()
        entry = self._apply(eb, laps)
        entry["seconds"] = laps.elapsed
        return self.record.append(entry)

    def _apply(self, eb: EdgeBatch, laps: "_Laps") -> dict:
        deleted = self._check_batch(eb)
        laps.split("check")
        deleted_kept = [
            (pair, float(self.graph.w[e]))
            for pair, e in zip(eb.deletes, deleted.tolist())
            if self._kept[e]
        ]
        tree_deleted = bool(self._tree[deleted].any())
        inserted = self._splice(deleted, eb.inserts)
        laps.split("materialize")

        region = self._touched_region(
            np.asarray(eb.touched_nodes, dtype=np.int64))
        in_region = np.zeros(self.n, dtype=bool)
        in_region[region] = True
        near = in_region[self.graph.u] | in_region[self.graph.v]
        laps.split("region")
        replacements = self._repair_forest(near, tree_deleted, inserted)
        laps.split("forest")
        reranked, added, dropped, displaced, scored = self._rerank(
            region, near, inserted)
        laps.split("rerank")
        self._accumulate_drift(eb, inserted, deleted_kept, dropped, scored)
        laps.split("drift")

        # The entry logs the estimate that made the rebuild decision;
        # a rebuild resets the live estimate back to 1.
        drift_at_batch = self.drift_estimate
        rebuilt = False
        if drift_at_batch > self.drift_budget:
            self.base_record = self._full_build()
            rebuilt = True
        entry = {
            "inserted": len(eb.inserts),
            "deleted": len(eb.deletes),
            "touched_nodes": len(region),
            "reranked_edges": reranked,
            "forest_replacements": replacements,
            "kept_added": len(added),
            "kept_dropped": len(dropped) + len(displaced),
            "graph_edges": self.graph.edge_count,
            "sparsifier_edges": int(np.count_nonzero(self._kept)),
            "drift_estimate": drift_at_batch,
            "rebuild": rebuilt,
        }
        laps.split("rebuild")
        entry["phases"] = laps.seconds
        return entry

    def _edge_ids(self, pairs) -> np.ndarray:
        """Ids of ``(u, v)`` pairs (``u < v``) in the current graph, or
        ``-1`` for a pair it does not hold.

        The graph is ``(u, v)``-sorted, so its ``u * n + v`` keys are
        sorted and one ``searchsorted`` finds every pair.
        """
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        wanted = pairs[:, 0] * self.n + pairs[:, 1]
        slots = np.searchsorted(self._keys, wanted)
        found = ((pairs[:, 0] >= 0) & (pairs[:, 1] < self.n)
                 & (slots < len(self._keys)))
        found[found] = self._keys[slots[found]] == wanted[found]
        return np.where(found, slots, -1)

    def _check_batch(self, eb: EdgeBatch) -> np.ndarray:
        """Validate a normalized batch against the current graph.

        Returns the ids of the deleted edges, in batch order.
        """
        for u, v, _ in eb.inserts:
            if not (0 <= u and v < self.n):
                raise IncrementalError(
                    f"edge ({u}, {v}) out of range for n={self.n}"
                )
        deleted = self._edge_ids(eb.deletes)
        for pair, e in zip(eb.deletes, deleted.tolist()):
            if e < 0:
                raise IncrementalError(
                    f"cannot delete absent edge {pair}"
                )
        present = self._edge_ids([(u, v) for u, v, _ in eb.inserts]) >= 0
        removed = set(eb.deletes)
        for (u, v, _), exists in zip(eb.inserts, present.tolist()):
            if exists and (u, v) not in removed:
                raise IncrementalError(
                    f"edge ({u}, {v}) already exists; delete it first to "
                    "re-weight"
                )
        return deleted

    def _splice(self, deleted: np.ndarray, inserts) -> np.ndarray:
        """Delete edge ids *deleted* and merge *inserts* into the graph.

        One ``searchsorted`` places the inserted keys among the
        surviving sorted keys, and one merge writes the keys, weights
        and the kept and forest masks (inserted edges start in
        neither), so the graph stays ``(u, v)``-sorted.  Returns the
        new ids of the inserted edges, in batch order.
        """
        n = self.n
        survive = np.ones(len(self._keys), dtype=bool)
        survive[deleted] = False
        keys = np.asarray([u * n + v for u, v, _ in inserts], dtype=np.int64)
        weights = np.asarray([w for _, _, w in inserts], dtype=np.float64)
        order = np.argsort(keys)
        slots = (np.searchsorted(self._keys[survive], keys[order])
                 + np.arange(len(order)))
        fresh = np.zeros(int(np.count_nonzero(survive)) + len(order),
                         dtype=bool)
        fresh[slots] = True
        stay = ~fresh

        def merged(old, new):
            out = np.empty(len(fresh), dtype=old.dtype)
            out[stay] = old[survive]
            out[fresh] = new
            return out

        self._keys = merged(self._keys, keys[order])
        self._kept = merged(self._kept, False)
        self._tree = merged(self._tree, False)
        u, v = np.divmod(self._keys, n)
        self.graph = Graph(n, u, v, merged(self.graph.w, weights[order]),
                           validate=False)
        ids = np.empty(len(order), dtype=np.int64)
        ids[order] = slots
        return ids

    def _touched_region(self, touched: np.ndarray) -> np.ndarray:
        """Nodes whose local state a batch may have changed.

        A node is affected iff a mutated endpoint lies within
        ``locality_beta`` hops of it in the old **or** the new adjacency.
        *touched* holds both endpoints of every deleted edge, so the old
        adjacency adds no node (``docs/architecture.md``, "Touched
        region of the delta path"): one union BFS from the touched nodes
        in the new graph finds them all.  Each level marks both
        endpoints of every edge with a marked endpoint, read straight
        off the edge arrays (no adjacency is sorted per batch).  Returns
        the sorted node ids.
        """
        u, v = self.graph.u, self.graph.v
        inside = np.zeros(self.n, dtype=bool)
        inside[touched] = True
        for _ in range(self.locality_beta):
            reached = inside[u] | inside[v]
            inside[u[reached]] = True
            inside[v[reached]] = True
        return np.flatnonzero(inside)

    def _repair_forest(self, near: np.ndarray, tree_deleted: bool,
                       inserted: np.ndarray) -> int:
        """Restore the spanning forest after a batch, local-first.

        One maximum spanning forest over a strict edge order: the
        surviving forest edges, then the non-forest edges *near* the
        touched region (by descending feGRASS effective weight, ties on
        ``(u, v)``), then — only when a tree edge was deleted — every
        other edge by the same key.  Under a strict order the forest is
        unique, so it is the one Kruskal's algorithm builds walking that
        order: every surviving edge plus the replacements counted here.

        When no forest edge was deleted (a re-weight deletes one) and no
        inserted edge joins two components of the rooted forest,
        Kruskal adds nothing: the old forest spans every component of
        the old graph, so every other edge closes a cycle
        (``docs/architecture.md``, "Forest upkeep on the delta path").
        The rooted forest then carries over, renumbered; after a
        repair it is re-rooted when next needed.
        """
        graph = self.graph
        forest = self._forest
        if forest is not None and not tree_deleted:
            labels = forest.component_labels
            ends = labels[graph.u[inserted]], labels[graph.v[inserted]]
            if np.array_equal(*ends):
                self._forest = forest.renumbered(
                    graph, np.flatnonzero(self._tree))
                return 0
        in_forest = self._tree
        by_key = np.argsort(-effective_weights(graph), kind="stable")
        by_key = by_key[~in_forest[by_key]]
        ranked = [np.flatnonzero(in_forest), by_key[near[by_key]]]
        if tree_deleted:
            # A deleted tree edge's replacement may live outside the
            # locality radius; the completion picks nothing when the
            # local edges already reconnected everything.
            ranked.append(by_key[~near[by_key]])
        order = np.concatenate(ranked)
        picked = order[maximum_spanning_forest(
            graph.subgraph(order), key=-np.arange(len(order), dtype=float)
        )]
        fresh = picked[~in_forest[picked]]
        self._tree[fresh] = True
        self._kept |= self._tree
        self._forest = None
        return len(fresh)

    def _rooted(self) -> RootedForest:
        """The rooted maintained forest, rooted now if a repair
        invalidated it."""
        if self._forest is None:
            self._forest = RootedForest(self.graph,
                                        np.flatnonzero(self._tree))
        return self._forest

    def _rerank(self, region: np.ndarray, near: np.ndarray,
                inserted: np.ndarray):
        """Re-rank off-tree edges inside the touched region.

        Scores every non-forest edge *near* the *region* (with an
        endpoint in it) by the leverage surrogate ``w_e * R_T(e)``
        (tree resistances from one batched LCA query) and adjusts the
        kept set toward the off-tree budget of the last full build:
        top-up with the best unkept local edges, trim the worst kept
        local edges, and swap in inserted edges that beat a kept local
        edge.  Only *mutation-caused* changes move the kept set —
        surviving edges are never displaced by one another (their base
        ranking came from the full trace-reduction run, which the
        tree-resistance surrogate must not relitigate).  Every ordering
        breaks score ties on ``(u, v)``, which is edge id order.

        Returns ``(scored_count, added, dropped, displaced, scored)``:
        edge id arrays, where *displaced* edges left through a swap
        (compensated by the incoming edge) and *dropped* edges through
        a trim (charged to the drift monitor), and *scored* is the pair
        ``(local, scores)`` of the scored edge ids and their leverages.
        """
        none = np.empty(0, dtype=np.int64)
        if len(region) == 0:
            return 0, none, none, none, (none, np.empty(0))
        graph = self.graph
        forest = self._rooted()
        local = np.flatnonzero(near & ~self._tree)
        if len(local) == 0:
            return 0, none, none, none, (none, np.empty(0))
        resist, _ = batch_tree_resistances(
            forest, graph.u[local], graph.v[local]
        )
        scores = graph.w[local] * resist

        kept = self._kept
        added, dropped = none, none
        offtree = int(np.count_nonzero(kept) - np.count_nonzero(self._tree))
        if offtree < self._offtree_target:
            spare = np.flatnonzero(~kept[local])
            best = spare[np.argsort(-scores[spare], kind="stable")]
            added = local[best[:self._offtree_target - offtree]]
            kept[added] = True
        elif offtree > self._offtree_target:
            held = np.flatnonzero(kept[local])
            worst = held[np.argsort(scores[held], kind="stable")]
            dropped = local[worst[:offtree - self._offtree_target]]
            kept[dropped] = False
        # Swap pass: a freshly inserted edge that beats a kept local
        # edge displaces it.  This is what makes a high-leverage
        # insertion *compensated* — it enters the sparsifier instead of
        # being charged to the drift monitor, and the exchange itself
        # is quality-neutral-or-better (incoming leverage strictly
        # exceeds outgoing), so displaced edges are not charged either.
        held = np.flatnonzero(kept[local])
        held = held[np.argsort(scores[held], kind="stable")]
        incoming = np.flatnonzero(np.isin(local, inserted) & ~kept[local])
        incoming = incoming[np.argsort(-scores[incoming], kind="stable")]
        pairs = min(len(held), len(incoming))
        beats = scores[incoming[:pairs]] > scores[held[:pairs]]
        swaps = pairs if beats.all() else int(np.argmin(beats))
        displaced = local[held[:swaps]]
        kept[displaced] = False
        kept[local[incoming[:swaps]]] = True
        added = np.concatenate([added, local[incoming[:swaps]]])
        return len(local), added, dropped, displaced, (local, scores)

    def _accumulate_drift(self, eb: EdgeBatch, inserted: np.ndarray,
                          deleted_kept: list, dropped: np.ndarray,
                          scored: tuple) -> None:
        """Fold this batch's uncompensated changes into the drift log.

        Each change the local pass did not absorb — an inserted edge
        left out of the sparsifier, or a previously kept edge removed —
        inflates the condition number by at most ``1 + w_e * R_eff(e)``
        (rank-one interlacing); tree resistance overestimates effective
        resistance, so the accumulated product is a conservative bound.
        A deleted kept edge whose endpoints fall into different
        components has unbounded leverage and forces a rebuild.
        """
        graph = self.graph
        local, scores = scored

        def score(e):
            slot = int(np.searchsorted(local, e))
            if slot < len(local) and local[slot] == e:
                return float(scores[slot])
            return None

        charges = []
        for (u, v, w), e in zip(eb.inserts, inserted.tolist()):
            if not self._kept[e]:
                charges.append((u, v, w, score(e)))
        fresh = set(inserted.tolist())
        for e in dropped.tolist():
            if e in fresh:
                # Already charged above as an uncompensated insertion.
                continue
            charges.append((int(graph.u[e]), int(graph.v[e]),
                            float(graph.w[e]), score(e)))
        for (u, v), w in deleted_kept:
            charges.append((u, v, w, None))
        if not charges:
            return
        rows = self._kept_adjacency()
        for u, v, w, leverage in charges:
            if leverage is None:
                leverage = self._tree_leverage(u, v, w)
            # Any u-v path in the kept subgraph upper-bounds effective
            # resistance, and the best detour is usually far shorter
            # than the forest path (local off-tree kept edges bypass
            # the change), so take the tighter of the two bounds.
            detour = _detour_resistance(rows, u, v)
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

    def _kept_adjacency(self):
        """CSR rows ``(indptr, neighbors, lengths)`` of the kept
        subgraph, with ``1/w`` edge lengths."""
        kept = self.graph.subgraph(self._kept)
        indptr, neighbors, edge_ids = kept.adjacency()
        return indptr, neighbors, 1.0 / kept.w[edge_ids]

    def _tree_leverage(self, u: int, v: int, w: float):
        """``w * R_T(u, v)`` in the current forest, or None across cuts."""
        forest = self._rooted()
        if forest.component_labels[u] != forest.component_labels[v]:
            return None
        resist, _ = batch_tree_resistances(
            forest, np.asarray([u]), np.asarray([v])
        )
        return float(w * resist[0])


class _Laps:
    """Back-to-back phases of one batch: :meth:`split` closes the phase
    running since the previous split (or since construction).

    :attr:`elapsed` runs from construction to the last split, so the
    phases add up to it by construction.
    """

    def __init__(self) -> None:
        self.seconds: dict = {}
        self._start = self._mark = time.perf_counter()

    def split(self, phase: str) -> None:
        now = time.perf_counter()
        self.seconds[f"{phase}_seconds"] = now - self._mark
        self._mark = now

    @property
    def elapsed(self) -> float:
        """Seconds from construction to the last split."""
        return self._mark - self._start


def _sorted_graph(graph: Graph) -> Graph:
    """*graph* with its edges in ``(u, v)`` order, validated."""
    order = np.argsort(graph.u * graph.n + graph.v)
    return Graph(graph.n, graph.u[order], graph.v[order], graph.w[order])


def _detour_resistance(rows, u: int, v: int):
    """Resistance of the best u-v path in the kept subgraph.

    Dijkstra over the CSR *rows* of
    :meth:`EvolvingSparsifier._kept_adjacency` (``1/w`` edge lengths),
    stopping when *v* is settled; series resistance of any path
    upper-bounds the effective resistance between its endpoints.  The
    settled distance is the least left-to-right float sum over all
    u-v paths, so any Dijkstra returns the same float.  Returns
    ``None`` when no path exists.
    """
    indptr, neighbors, lengths = rows
    dist = {u: 0.0}
    heap = [(0.0, u)]
    while heap:
        d, node = heapq.heappop(heap)
        if node == v:
            return d
        if d > dist[node]:
            continue
        lo, hi = indptr[node], indptr[node + 1]
        for nbr, length in zip(neighbors[lo:hi].tolist(),
                               lengths[lo:hi].tolist()):
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
