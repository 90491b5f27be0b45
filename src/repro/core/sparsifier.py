"""Algorithm 2 — graph spectral sparsification via approximate trace reduction.

Pipeline (Sec. 3.3 of the paper):

1. extract a low-stretch spanning tree (MEWST by default);
2. rank all off-tree edges by the *tree-phase* truncated trace
   reduction (Eqs. 13-15) and recover the top ``alpha / N_r`` of them,
   marking spectrally similar edges for exclusion;
3. for each of the remaining ``N_r - 1`` rounds: factorize the current
   subgraph Laplacian, build the sparse approximate inverse of its
   Cholesky factor (Algorithm 1), rank the remaining off-subgraph edges
   by the approximate trace reduction (Eq. 20), and recover the next
   ``alpha / N_r`` unmarked edges.

The iterative densification (recompute criticality against the *current*
subgraph instead of the initial tree) is the scheme of GRASS [7, 8]; the
similarity exclusion is feGRASS's [13].

Round 1 scores its candidates with
:func:`~repro.core.tree_phase.tree_truncated_trace_reduction`, and
rounds 2+ with :class:`~repro.core.ranking.ApproxRanker`'s
``score_batch``.  Both score a block of candidates with segmented array
operations, so a round issues a few hundred numpy calls rather than a
few per candidate.  One :class:`~repro.core.ball_join.JoinStore` per
run carries each candidate's ball-pair join from round to round: the
tree phase seeds it, and each general round regrows only the joins
whose balls may have grown.  It never enters the session artifact
store, so a run that restores the tree phase from a session simply
starts round 2 with an empty store.

:func:`_run` is the ``"proposed"`` method's registered runner; it takes
a config that :func:`repro.sparsify` has validated.

A general round recovers about 1% of its candidates, so it does not
score them all.  One walk (:func:`_pick_edges`) visits candidates in
exact score order; in rounds 2+ it reads them from a generator that
scores, in batches, only the candidates whose Cauchy-Schwarz bound
(:meth:`~repro.core.ranking.ApproxRanker.score_bounds`) can still
reach the walk's frontier.  Picks, their order and every logged value
are those of a walk over every score (``docs/architecture.md``,
"Exact pruning of rounds 2+").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.ball_join import JoinStore
from repro.core.base import BaseSparsifierConfig, shared_artifact
from repro.core.ranking import ApproxRanker
from repro.core.similarity import SimilarityMarker
from repro.core.tree_phase import tree_truncated_trace_reduction
from repro.exceptions import GraphError
from repro.graph.graph import Graph
from repro.graph.laplacian import regularization_shift, regularized_laplacian
from repro.linalg.cholesky import cholesky
from repro.linalg.spai import sparse_approximate_inverse
from repro.tree.spanning import bfs_spanning_forest, maximum_spanning_forest, mewst
from repro.utils.timers import Timer

__all__ = ["SparsifierConfig", "SparsifierResult"]

#: Fewest candidates the first batch of a general round scores; a round
#: with no more candidates than its first batch computes no bounds.
FIRST_BATCH = 2048

#: Fewest candidates scored when the walk stalls on an unscored bound.
STALL_BATCH = 256

_TREE_METHODS = {
    "mewst": mewst,
    "max_weight": maximum_spanning_forest,
    "bfs": bfs_spanning_forest,
}


@dataclass(kw_only=True)
class SparsifierConfig(BaseSparsifierConfig):
    """Knobs of Algorithm 2 (defaults follow the paper's experiments).

    Parameters
    ----------
    edge_fraction : float
        Recovery budget ``alpha``: recover ``edge_fraction * |V|``
        off-tree edges in total (inherited from
        :class:`~repro.core.base.BaseSparsifierConfig`).
    rounds : int
        Number of densification rounds ``N_r``.
    beta : int
        BFS truncation depth of the criticality balls (Eq. 12).
    delta : float
        SPAI pruning threshold of Algorithm 1.
    gamma : int
        Similarity-exclusion ball radius (feGRASS marking).
    tree_method : {"mewst", "max_weight", "bfs"}
        Spanning-tree extractor used for the initial subgraph.
    use_similarity : bool
        Mark spectrally similar edges for exclusion when recovering.
    reg_rel : float
        Relative diagonal shift regularizing singular Laplacians
        (footnote 1 of the paper).
    seed : int
        Seed recorded for API symmetry with the randomized baselines
        (Algorithm 2 itself is deterministic).
    workers : int
        Worker processes of a sharded run (``shards > 1``): ``1``
        serial (default), ``>1`` that many processes, ``0`` one per
        CPU.  Each shard is one task; candidate scoring always runs in
        the calling process.  Results are bit-identical for every
        setting.
    """

    rounds: int = 5               # N_r
    beta: int = 5                 # BFS truncation depth (Eq. 12)
    delta: float = 0.1            # SPAI pruning threshold (Alg. 1)
    gamma: int = 2                # similarity-exclusion ball radius
    tree_method: str = "mewst"    # "mewst" | "max_weight" | "bfs"
    use_similarity: bool = True   # mark similar edges for exclusion
    reg_rel: float = 1e-6         # footnote-1 diagonal shift, relative
    workers: int = 1              # shard processes (0 = one per CPU)

    def validate(self) -> None:
        """Raise :class:`~repro.exceptions.GraphError` on bad knobs."""
        super().validate()
        if self.rounds < 1:
            raise GraphError("rounds must be >= 1")
        if self.beta < 1:
            raise GraphError("beta must be >= 1")
        if not 0.0 <= self.delta < 1.0:
            raise GraphError(f"delta must be in [0, 1), got {self.delta!r}")
        if self.gamma < 0:
            raise GraphError(f"gamma must be >= 0, got {self.gamma!r}")
        if self.tree_method not in _TREE_METHODS:
            raise GraphError(
                f"unknown tree_method {self.tree_method!r}; "
                f"choose from {sorted(_TREE_METHODS)}"
            )
        if self.workers < 0:
            raise GraphError("workers must be >= 0 (0 = one per CPU)")


@dataclass
class SparsifierResult:
    """Outcome of a sparsification run.

    Attributes
    ----------
    graph : Graph
        The original graph ``G``.
    edge_mask : numpy.ndarray
        Boolean mask over ``graph``'s edges; True = kept in ``P``.
    tree_edge_ids : numpy.ndarray
        Edge ids of the initial spanning tree/forest.
    recovered_edge_ids : numpy.ndarray
        Off-tree edges recovered by the densification rounds, in
        recovery order.
    config : SparsifierConfig
        The configuration the run used.
    setup_seconds : float
        Wall-clock time of the whole sparsification, set by
        :func:`repro.sparsify` (including any cache-restore I/O; see
        ``restore_seconds``).
    rounds_log : list of dict
        One entry per executed round: phase, candidate count, edges
        added, trace reduction claimed, cache statistics and timing.
        Sharded runs tag every entry with the shard index.
    restore_seconds : float
        Portion of ``setup_seconds`` spent restoring artifacts from
        the persistent disk cache (0.0 for session-less or
        memory-only runs), so warm-run speedups are attributable to
        cache I/O vs compute.
    sharding : dict or None
        Shard-parallel diagnostics (shard sizes, per-shard timings,
        cut statistics) when the run went through
        :mod:`repro.core.sharding`; ``None`` for unsharded runs.
    """

    graph: Graph
    edge_mask: np.ndarray          # True = edge kept in the sparsifier
    tree_edge_ids: np.ndarray
    recovered_edge_ids: np.ndarray
    config: object
    setup_seconds: float = 0.0
    rounds_log: list = field(default_factory=list)
    restore_seconds: float = 0.0
    sharding: dict | None = None

    @property
    def sparsifier(self) -> Graph:
        """The sparsifier ``P`` as a graph (tree + recovered edges)."""
        return self.graph.subgraph(self.edge_mask)

    @property
    def edge_count(self) -> int:
        """Number of edges kept in the sparsifier."""
        return int(self.edge_mask.sum())


def _ranked(candidates, scores):
    """``(edge, score)`` pairs in walk order, from scores of every candidate.

    The walk order is descending score, ties in ascending edge id
    (*candidates* ascending, a stable sort).
    """
    order = np.argsort(-scores, kind="stable")
    return zip(candidates[order], scores[order])


def _ranked_on_demand(ranker, candidates, score, marked, first):
    """The walk order of a general round, scoring candidates as needed.

    Yields the pairs :func:`_ranked` would yield over all *candidates*
    (ascending), but scores, through ``score(edge_ids)``, only the
    candidates whose bound (:meth:`ApproxRanker.score_bounds`) can
    still reach the walk's frontier.  A scored candidate is yielded only
    once its score is strictly greater than the bound of every
    candidate still unscored and unmarked, so none of those can sort
    before it; an unscored candidate marked meanwhile was marked by a
    pick that sorts before it, so the full walk skips it too
    (``docs/architecture.md``, "Exact pruning of rounds 2+").

    The first batch is the ``first`` candidates with the largest
    bounds; when it holds every candidate, no bound is computed.  When
    the walk stalls, every open candidate whose bound reaches the front
    score is scored, at least :data:`STALL_BATCH`; when no scored
    candidate with a positive score is left, a batch twice the last
    such size.  Batches are scored in edge-id order.
    """
    if len(candidates) <= first:
        yield from _ranked(candidates, score(candidates))
        return
    bound = ranker.score_bounds(candidates)
    # Positions of the unscored candidates, by descending bound.
    open_ = np.argsort(-bound, kind="stable")
    batch, open_ = open_[:first], open_[first:]
    size = first
    # Scored candidates not yet yielded, in walk order from `head` on.
    ids, scores, head = candidates[:0], np.empty(0), 0
    while True:
        batch = candidates[np.sort(batch)]
        ids, scores = _merged(ids[head:], scores[head:], batch, score(batch))
        head = 0
        open_ids = candidates[open_]
        k = 0
        while True:
            # Marked candidates are never picked: pass them over.
            while k < len(open_) and marked[open_ids[k]]:
                k += 1
            while head < len(ids) and marked[ids[head]]:
                head += 1
            if k == len(open_):
                yield from zip(ids[head:], scores[head:])
                return
            if head == len(ids) or not scores[head] > bound[open_[k]]:
                break
            yield ids[head], scores[head]
            head += 1
        open_ = open_[k:][~marked[open_ids[k:]]]
        if head < len(ids) and scores[head] > 0.0:
            take = max(STALL_BATCH,
                       np.count_nonzero(bound[open_] >= scores[head]))
        else:
            size *= 2
            take = size
        batch, open_ = open_[:take], open_[take:]


def _merged(ids, scores, new_ids, new_scores):
    """Merge a scored batch into scored candidates already in walk order.

    *new_ids* are ascending.  The batch alone is sorted, and one stable
    sort over the two sorted runs merges them (a merge sort finds the
    runs), so each stall costs about one pass over the pool instead of
    a full sort.  A score tied across the two runs comes out pool first;
    if that leaves a tie out of edge-id order, the ties are put back in
    order by sorting on ``(score, id)`` as the walk order is defined.
    """
    order = np.argsort(-new_scores, kind="stable")
    ids = np.concatenate([ids, new_ids[order]])
    scores = np.concatenate([scores, new_scores[order]])
    order = np.argsort(-scores, kind="stable")
    ids, scores = ids[order], scores[order]
    # An adjacent pair is in walk order when its score falls or its id
    # rises (the test is written so that NaN scores count as tied).
    if np.any(~(scores[:-1] > scores[1:]) & (ids[:-1] > ids[1:])):
        order = np.lexsort((ids, -scores))
        ids, scores = ids[order], scores[order]
    return ids, scores


def _pick_edges(ranked, marker, per_round, use_similarity):
    """Walk candidates in descending score order, skipping marked edges.

    Mirrors Algorithm 2's inner while loop (steps 4-10 / 16-22).
    *ranked* yields ``(edge, score)`` pairs in walk order, ties in
    ascending edge id: sorted arrays (:func:`_ranked`) in round 1 and
    the baselines, a generator that scores on demand
    (:func:`_ranked_on_demand`) in rounds 2+, which reads the marks as
    the walk goes.

    The walk takes the next ``per_round - len(chosen)`` unmarked pairs
    with a positive score, finds their similar edges in one call
    (:meth:`~repro.core.similarity.SimilarityMarker.similar_edges`) and
    resolves them in walk order: a candidate is picked unless an earlier
    pick marked it, and a pick marks its similar edges (only itself
    when *use_similarity* is off).  Picks, their order and the marks
    are those of a walk that marks after every pick
    (``docs/architecture.md``, "Similarity marking in batches").
    Returns the recovered edge ids and their scores, in recovery order.
    """
    chosen, gains = [], []
    marked = marker.marked
    pairs = iter(ranked)
    while len(chosen) < per_round:
        batch, scores = [], []
        for edge, score in pairs:
            # A zero trace reduction means the edge adds nothing
            # (numerically disconnected balls); never recover those.
            if score <= 0.0 or marked[edge]:
                continue
            batch.append(int(edge))
            scores.append(score)
            if len(chosen) + len(batch) == per_round:
                break
        if not batch:
            break
        if use_similarity:
            ptr, similar = marker.similar_edges(batch)
            ptr = ptr.tolist()
        for k, edge in enumerate(batch):
            if marked[edge]:
                continue  # an earlier pick of this batch marked it
            chosen.append(edge)
            gains.append(scores[k])
            marker.mark_similar(similar[ptr[k]:ptr[k + 1]]
                                if use_similarity else [edge])
    return chosen, gains


def _run(graph: Graph, config: SparsifierConfig,
         artifacts=None) -> SparsifierResult:
    """Algorithm 2 on *graph*; *artifacts* is an optional session store.

    The registered ``"proposed"`` runner: *config* is already validated,
    and :func:`repro.sparsify` times the run.  Output is deterministic.
    """
    n = graph.n
    m = graph.edge_count
    shift = shared_artifact(
        artifacts, "shift", (config.reg_rel,),
        lambda: regularization_shift(graph, config.reg_rel),
    )

    # Step 1: low-stretch spanning tree.
    tree_ids = shared_artifact(
        artifacts, "tree", (config.tree_method,),
        lambda: _TREE_METHODS[config.tree_method](graph),
    )
    from repro.tree.rooted import RootedForest

    forest = shared_artifact(
        artifacts, "forest", (config.tree_method,),
        lambda: RootedForest(graph, tree_ids),
    )
    edge_mask = forest.tree_edge_mask()

    budget = int(round(config.edge_fraction * n))
    budget = min(budget, m - len(tree_ids))
    per_round = max(1, int(np.ceil(budget / config.rounds))) if budget else 0
    marker = SimilarityMarker(graph, gamma=config.gamma)
    recovered: list = []
    rounds_log: list = []
    joins = JoinStore(graph) if config.rounds > 1 else None

    if budget > 0:
        # Step 2: tree-phase ranking (Eqs. 13-15).
        round_timer = Timer()
        with round_timer:
            def _tree_phase():
                # Depends only on (graph, tree, beta): candidates are the
                # off-tree edges, so a session can share the scores
                # across fraction sweeps.
                cand = np.flatnonzero(~edge_mask)
                if joins is not None:
                    joins.reset(forest.tree.adjacency()[:2])
                crit, _, _ = tree_truncated_trace_reduction(
                    graph, forest, edge_ids=cand, beta=config.beta,
                    joins=joins,
                )
                return cand, crit

            candidates, crit = shared_artifact(
                artifacts, "tree_phase",
                (config.tree_method, config.beta), _tree_phase,
            )
            marker.attach_subgraph(forest.tree)
            chosen, gains = _pick_edges(_ranked(candidates, crit), marker,
                                        per_round, config.use_similarity)
            edge_mask[chosen] = True
            recovered.extend(chosen)
        rounds_log.append(
            {
                "round": 1,
                "phase": "tree",
                "candidates": len(candidates),
                "added": len(chosen),
                "trace_reduction": float(np.sum(gains)),
                "seconds": round_timer.elapsed,
            }
        )

        # Steps 11-23: iterative densification with Eq. (20).
        scored = 0  # candidates the previous round scored
        for round_index in range(2, config.rounds + 1):
            if len(recovered) >= budget:
                break
            round_timer = Timer()
            with round_timer:
                subgraph = graph.subgraph(edge_mask)
                laplacian_s = regularized_laplacian(subgraph, shift)
                factor = cholesky(laplacian_s)
                candidates = np.flatnonzero(~edge_mask & ~marker.marked)
                if len(candidates) == 0:
                    break
                Z = sparse_approximate_inverse(factor.L, delta=config.delta)
                ranker = ApproxRanker(
                    graph, subgraph, factor, Z, beta=config.beta
                )
                ranker.reuse_joins(joins, candidates)
                marker.attach_subgraph(subgraph)
                want = min(per_round, budget - len(recovered))
                # Rounds score ever more of their candidates as the best
                # ones are used up; a round bound to score more than half
                # scores all at once, where bounds would not pay.
                first = max(4 * want, FIRST_BATCH, 2 * scored)
                scored = 0

                def score(edge_ids):
                    nonlocal scored
                    scored += len(edge_ids)
                    return ranker.score_batch(edge_ids)

                chosen, gains = _pick_edges(
                    _ranked_on_demand(ranker, candidates, score,
                                      marker.marked, first),
                    marker, want, config.use_similarity,
                )
                edge_mask[chosen] = True
                recovered.extend(chosen)
            rounds_log.append(
                {
                    "round": round_index,
                    "phase": "general",
                    "candidates": len(candidates),
                    "added": len(chosen),
                    "trace_reduction": float(np.sum(gains)),
                    "spai_nnz": int(Z.nnz),
                    "factor_nnz": int(factor.nnz),
                    "seconds": round_timer.elapsed,
                }
            )

    return SparsifierResult(
        graph=graph,
        edge_mask=edge_mask,
        tree_edge_ids=tree_ids,
        recovered_edge_ids=np.asarray(recovered, dtype=np.int64),
        config=config,
        rounds_log=rounds_log,
    )
