"""GRASS baseline — spectral-perturbation-based sparsification [8].

GRASS ranks off-subgraph edges with the Laplacian quadratic form of the
dominant generalized eigenvector, estimated by t-step power iterations
(Eqs. 2-3 of the paper)::

    h_t = (L_S^{-1} L_G)^t h_0,        criticality = w_pq (h_t^T e_pq)^2

and embeds the ranking in the same iterative densification loop as
Algorithm 2.  Following GRASS's similarity-aware variant [7], the same
edge-exclusion marking is applied (toggle with ``use_similarity``).

This reimplementation follows the published description; the original
is a C++ binary [6] unavailable offline (DESIGN.md, substitution 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.base import BaseSparsifierConfig, shared_artifact
from repro.core.similarity import SimilarityMarker
from repro.core.sparsifier import (
    _TREE_METHODS,
    SparsifierResult,
    _pick_edges,
    _ranked,
)
from repro.exceptions import GraphError
from repro.graph.graph import Graph
from repro.graph.laplacian import regularization_shift, regularized_laplacian
from repro.linalg.cholesky import cholesky
from repro.tree.rooted import RootedForest
from repro.utils.rng import as_rng
from repro.utils.timers import Timer

__all__ = ["GrassConfig", "perturbation_criticality"]


@dataclass(kw_only=True)
class GrassConfig(BaseSparsifierConfig):
    """Knobs of the GRASS baseline."""

    rounds: int = 5
    power_steps: int = 2          # t in Eq. (2)
    probe_vectors: int = 3        # random h_0 vectors averaged
    gamma: int = 2
    tree_method: str = "mewst"
    use_similarity: bool = True
    reg_rel: float = 1e-6

    def validate(self) -> None:
        super().validate()
        if self.rounds < 1:
            raise GraphError("rounds must be >= 1")
        if self.power_steps < 1:
            raise GraphError("power_steps must be >= 1")
        if self.probe_vectors < 1:
            raise GraphError("probe_vectors must be >= 1")
        if self.gamma < 0:
            raise GraphError(f"gamma must be >= 0, got {self.gamma!r}")
        if self.tree_method not in _TREE_METHODS:
            raise GraphError(
                f"unknown tree_method {self.tree_method!r}; "
                f"choose from {sorted(_TREE_METHODS)}"
            )


def perturbation_criticality(
    graph: Graph,
    laplacian_g,
    subgraph_factor,
    edge_ids,
    power_steps=2,
    probe_vectors=3,
    rng=None,
):
    """Eqs. (2)-(3): power-iteration spectral criticality per edge.

    For each probe vector ``h_0`` (random, mean-removed), applies
    ``h <- L_S^{-1} (L_G h)`` ``power_steps`` times, normalizes, and
    accumulates ``w_pq (h_p - h_q)^2`` for every candidate edge.
    """
    rng = as_rng(rng)
    edge_ids = np.asarray(edge_ids, dtype=np.int64)
    heads = graph.u[edge_ids]
    tails = graph.v[edge_ids]
    weights = graph.w[edge_ids]
    total = np.zeros(len(edge_ids))
    n = graph.n
    for _ in range(probe_vectors):
        h = rng.standard_normal(n)
        h -= h.mean()
        for _ in range(power_steps):
            h = subgraph_factor.solve(laplacian_g @ h)
        norm = np.linalg.norm(h)
        if norm == 0:
            continue
        h /= norm
        diff = h[heads] - h[tails]
        total += weights * diff * diff
    return total / probe_vectors


def _run(graph: Graph, config: GrassConfig,
         artifacts=None) -> SparsifierResult:
    """The registered ``"grass"`` runner (*config* already validated)."""
    n = graph.n
    m = graph.edge_count
    rng = as_rng(config.seed)
    shift = shared_artifact(
        artifacts, "shift", (config.reg_rel,),
        lambda: regularization_shift(graph, config.reg_rel),
    )
    laplacian_g = shared_artifact(
        artifacts, "laplacian_g", (config.reg_rel, "csr"),
        lambda: regularized_laplacian(graph, shift, fmt="csr"),
    )

    tree_ids = shared_artifact(
        artifacts, "tree", (config.tree_method,),
        lambda: _TREE_METHODS[config.tree_method](graph),
    )
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

    for round_index in range(1, config.rounds + 1):
        if budget == 0 or len(recovered) >= budget:
            break
        round_timer = Timer()
        with round_timer:
            subgraph = graph.subgraph(edge_mask)
            laplacian_s = regularized_laplacian(subgraph, shift)
            factor = cholesky(laplacian_s)
            candidates = np.flatnonzero(~edge_mask & ~marker.marked)
            if len(candidates) == 0:
                break
            crit = perturbation_criticality(
                graph,
                laplacian_g,
                factor,
                candidates,
                power_steps=config.power_steps,
                probe_vectors=config.probe_vectors,
                rng=rng,
            )
            marker.attach_subgraph(subgraph)
            want = min(per_round, budget - len(recovered))
            chosen, _ = _pick_edges(_ranked(candidates, crit), marker, want,
                                    config.use_similarity)
            edge_mask[chosen] = True
            recovered.extend(chosen)
        rounds_log.append(
            {
                "round": round_index,
                "phase": "grass",
                "candidates": len(candidates),
                "added": len(chosen),
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
