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

Candidate scoring is delegated to the batched ranking engine
(:mod:`repro.core.ranking`) and executed through the chunked worker
pool (:mod:`repro.core.parallel`): rounds build a
:class:`~repro.core.ranking.TreePhaseRanker` (round 1) or
:class:`~repro.core.ranking.ApproxRanker` (rounds 2+) and shard the
candidate list across ``config.workers`` processes.  Each ranker
scores its candidates in blocks of segmented array operations, so a
round issues a few hundred numpy calls rather than a few per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.base import BaseSparsifierConfig, shared_artifact
from repro.core.parallel import score_edges
from repro.core.ranking import ApproxRanker, TreePhaseRanker
from repro.core.similarity import SimilarityMarker
from repro.exceptions import GraphError
from repro.graph.graph import Graph
from repro.graph.laplacian import regularization_shift, regularized_laplacian
from repro.linalg.cholesky import cholesky
from repro.linalg.spai import sparse_approximate_inverse
from repro.tree.spanning import bfs_spanning_forest, maximum_spanning_forest, mewst
from repro.utils.timers import Timer

__all__ = ["SparsifierConfig", "SparsifierResult", "trace_reduction_sparsify"]

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
        Worker processes for candidate scoring: ``1`` serial (default),
        ``>1`` that many processes, ``0`` one per CPU.  Results are
        bit-identical for every setting.
    chunk_size : int
        Candidates per scoring task; ``0`` (default) picks
        :data:`repro.core.parallel.DEFAULT_CHUNK_SIZE`.  Results do not
        depend on this value.
    """

    rounds: int = 5               # N_r
    beta: int = 5                 # BFS truncation depth (Eq. 12)
    delta: float = 0.1            # SPAI pruning threshold (Alg. 1)
    gamma: int = 2                # similarity-exclusion ball radius
    tree_method: str = "mewst"    # "mewst" | "max_weight" | "bfs"
    use_similarity: bool = True   # mark similar edges for exclusion
    reg_rel: float = 1e-6         # footnote-1 diagonal shift, relative
    workers: int = 1              # scoring processes (0 = one per CPU)
    chunk_size: int = 0           # candidates per scoring task (0 = auto)

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
        if self.chunk_size < 0:
            raise GraphError("chunk_size must be >= 0 (0 = auto)")


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
        Wall-clock time of the whole sparsification (including any
        cache-restore I/O; see ``restore_seconds``).
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


def _pick_edges(order, criticality, marker, per_round, use_similarity):
    """Walk a criticality-sorted candidate list, skipping marked edges.

    Mirrors Algorithm 2's inner while loop (steps 4-10 / 16-22);
    returns the list of recovered edge ids.
    """
    chosen = []
    graph = marker.graph
    for edge in order:
        edge = int(edge)
        if criticality is not None and criticality[edge] <= 0.0:
            # A zero trace reduction means the edge adds nothing
            # (numerically disconnected balls); never recover those.
            continue
        if marker.is_marked(edge):
            continue
        chosen.append(edge)
        if use_similarity:
            marker.mark_similar(int(graph.u[edge]), int(graph.v[edge]))
        else:
            marker.marked[edge] = True
        if len(chosen) >= per_round:
            break
    return chosen


def trace_reduction_sparsify(graph: Graph, config=None, *, artifacts=None,
                             **overrides):
    """Run Algorithm 2 on *graph* and return a :class:`SparsifierResult`.

    Prefer :func:`repro.sparsify` (``method="proposed"``) for new code;
    this entry point remains as the registered implementation and for
    backward compatibility.

    Parameters
    ----------
    graph : Graph
        The graph ``G`` to sparsify.
    config : SparsifierConfig, optional
        Full configuration object; mutually exclusive with keyword
        overrides.
    artifacts : repro.core.base.ArtifactStore, optional
        Session artifact store for reusing the spanning tree / forest,
        regularization shift and tree-phase criticality across runs on
        the same graph.  Reuse never changes results.
    **overrides
        :class:`SparsifierConfig` fields by keyword, e.g.
        ``trace_reduction_sparsify(g, edge_fraction=0.05, rounds=2,
        workers=4)``.

    Returns
    -------
    SparsifierResult
        The sparsifier ``P`` (tree + recovered edges) with per-round
        diagnostics.  Output is deterministic and independent of the
        ``workers`` / ``chunk_size`` knobs.

    Raises
    ------
    repro.exceptions.GraphError
        If both *config* and overrides are given, or a knob is invalid.
    """
    if config is None:
        config = SparsifierConfig(**overrides)
    elif overrides:
        raise GraphError("pass either a config object or overrides, not both")
    config.validate()

    timer = Timer()
    with timer:
        result = _run(graph, config, artifacts)
    result.setup_seconds = timer.elapsed
    return result


def _run(graph: Graph, config: SparsifierConfig,
         artifacts=None) -> SparsifierResult:
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

    if budget > 0:
        # Step 2: tree-phase ranking (Eqs. 13-15).
        round_timer = Timer()
        with round_timer:
            def _tree_phase():
                # Depends only on (graph, tree, beta): candidates are the
                # off-tree edges and scores are worker-count invariant,
                # so a session can share them across fraction sweeps.
                cand = np.flatnonzero(~edge_mask)
                ranker = TreePhaseRanker(graph, forest, beta=config.beta)
                scores = score_edges(
                    ranker, cand,
                    workers=config.workers, chunk_size=config.chunk_size,
                )
                return cand, scores

            candidates, crit = shared_artifact(
                artifacts, "tree_phase",
                (config.tree_method, config.beta), _tree_phase,
            )
            full_crit = np.zeros(m)
            full_crit[candidates] = crit
            order = candidates[np.argsort(-crit, kind="stable")]
            marker.attach_subgraph(forest.tree)
            chosen = _pick_edges(
                order, full_crit, marker, per_round, config.use_similarity
            )
            edge_mask[chosen] = True
            recovered.extend(chosen)
        rounds_log.append(
            {
                "round": 1,
                "phase": "tree",
                "candidates": len(candidates),
                "added": len(chosen),
                "trace_reduction": float(full_crit[chosen].sum()),
                "seconds": round_timer.elapsed,
            }
        )

        # Steps 11-23: iterative densification with Eq. (20).
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
                crit = score_edges(
                    ranker, candidates,
                    workers=config.workers, chunk_size=config.chunk_size,
                )
                full_crit = np.zeros(m)
                full_crit[candidates] = crit
                order = candidates[np.argsort(-crit, kind="stable")]
                marker.attach_subgraph(subgraph)
                want = min(per_round, budget - len(recovered))
                chosen = _pick_edges(
                    order, full_crit, marker, want, config.use_similarity
                )
                edge_mask[chosen] = True
                recovered.extend(chosen)
            rounds_log.append(
                {
                    "round": round_index,
                    "phase": "general",
                    "candidates": len(candidates),
                    "added": len(chosen),
                    "trace_reduction": float(full_crit[chosen].sum()),
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
