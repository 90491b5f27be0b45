"""Effective-resistance sampling sparsifier (Spielman-Srivastava [16]).

The paper's introduction positions trace reduction against the classic
theory baseline: sample ``q`` edges with replacement with probabilities
proportional to ``w_e * R_eff(e)`` (the leverage scores) and reweight by
the inverse sampling probability.  Exact effective resistances need one
solve per edge; Spielman-Srivastava make it near-linear with a
Johnson-Lindenstrauss sketch of ``W^{1/2} B L^+``:

    R_eff(u, v) ~= || Z e_uv ||^2,   Z = Q W^{1/2} B L^{-1},

with ``Q`` a ``k x m`` random projection, ``k = O(log n / eps^2)`` —
each of the ``k`` rows costs one Laplacian solve.

Provided as a third baseline: theoretically grounded, but — as the
paper argues — its sparsifiers keep a *multiset* of reweighted edges
and do not guarantee a spanning backbone, so for preconditioning we
union the sample with a spanning forest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.base import BaseSparsifierConfig, shared_artifact
from repro.core.sparsifier import SparsifierResult
from repro.exceptions import GraphError
from repro.graph.graph import Graph
from repro.graph.laplacian import (
    incidence_matrix,
    regularization_shift,
    regularized_laplacian,
)
from repro.linalg.cholesky import cholesky
from repro.tree.spanning import mewst
from repro.utils.rng import as_rng

__all__ = ["ErSamplingConfig", "approximate_effective_resistances"]


@dataclass(kw_only=True)
class ErSamplingConfig(BaseSparsifierConfig):
    """Knobs of the effective-resistance sampling baseline."""

    sketch_size: int | None = None   # JL rows k (None = ceil(8 log n))
    reg_rel: float = 1e-6

    def validate(self) -> None:
        super().validate()
        if self.sketch_size is not None and self.sketch_size < 1:
            raise GraphError("sketch_size must be >= 1 or None")


def approximate_effective_resistances(
    graph: Graph, sketch_size=None, reg_rel=1e-6, seed=0, factor=None,
) -> np.ndarray:
    """JL-sketched effective resistance of every edge.

    Parameters
    ----------
    graph:
        Connected weighted graph (forests work per component).
    sketch_size:
        Number of random projection rows ``k`` (default
        ``ceil(8 log n)``); each row costs one Laplacian solve.
    factor:
        Optional precomputed Cholesky factor of the regularized
        Laplacian (sessions pass it to skip the refactorization).

    Returns
    -------
    numpy.ndarray
        Approximate ``R_eff`` per edge, aligned with the edge arrays.

    Notes
    -----
    Each row draws its probe from the generator and then solves, row by
    row.  That order fixes the generator's final state, which the
    sampler records so that a warm run draws its sample exactly like a
    cold one.
    """
    rng = as_rng(seed)
    n = graph.n
    if sketch_size is None:
        sketch_size = int(np.ceil(8 * np.log(max(n, 2))))
    if sketch_size < 1:
        raise GraphError(f"sketch_size must be >= 1, got {sketch_size!r}")
    if factor is None:
        shift = regularization_shift(graph, reg_rel)
        factor = cholesky(regularized_laplacian(graph, shift))
    incidence = incidence_matrix(graph, weighted=True)  # m x n, W^(1/2) B
    # Sketch rows: y_i = L^{-1} (B^T W^{1/2} q_i), q_i ~ Rademacher/sqrt(k).
    sketch = np.empty((sketch_size, n))
    scale = 1.0 / np.sqrt(sketch_size)
    for i in range(sketch_size):
        q = rng.choice((-scale, scale), size=graph.edge_count)
        sketch[i] = factor.solve(incidence.T @ q)
    diffs = sketch[:, graph.u] - sketch[:, graph.v]
    return np.sum(diffs * diffs, axis=0)


def _run(graph: Graph, config: ErSamplingConfig,
         artifacts=None) -> SparsifierResult:
    """The registered ``"er_sampling"`` runner (*config* already validated).

    Samples ``edge_fraction * |V|`` off-tree edges (without
    replacement, probability proportional to the leverage score
    ``w_e R_eff(e)``) on top of a MEWST backbone, mirroring the edge
    budget convention of the other sparsifiers in this package so the
    results are directly comparable.

    Notes
    -----
    The classic construction samples *with* replacement and reweights;
    for preconditioning comparisons at a fixed edge budget, the
    without-replacement topology variant is standard and keeps the
    sparsifier a plain subgraph (weights unchanged).
    """
    rng = as_rng(config.seed)
    tree_ids = shared_artifact(
        artifacts, "tree", ("mewst",), lambda: mewst(graph)
    )

    def _resistances():
        # The expensive part: sketch_size Laplacian solves.  Capturing
        # the generator state *after* the sketch makes a warm run
        # consume the stream exactly like a cold one, so the subsequent
        # sample is bit-identical.
        shift = shared_artifact(
            artifacts, "shift", (config.reg_rel,),
            lambda: regularization_shift(graph, config.reg_rel),
        )
        factor = shared_artifact(
            artifacts, "factor_g", (config.reg_rel,),
            lambda: cholesky(regularized_laplacian(graph, shift)),
        )
        values = approximate_effective_resistances(
            graph, sketch_size=config.sketch_size, reg_rel=config.reg_rel,
            seed=rng, factor=factor,
        )
        return values, rng.bit_generator.state

    resistances, rng_state = shared_artifact(
        artifacts, "er_resistances",
        (config.sketch_size, config.reg_rel, config.seed),
        _resistances,
    )
    rng.bit_generator.state = rng_state
    leverage = graph.w * resistances
    edge_mask = np.zeros(graph.edge_count, dtype=bool)
    edge_mask[tree_ids] = True
    candidates = np.flatnonzero(~edge_mask)
    budget = int(round(config.edge_fraction * graph.n))
    budget = min(budget, len(candidates))
    recovered = np.empty(0, dtype=np.int64)
    if budget > 0 and len(candidates):
        probabilities = leverage[candidates]
        total = probabilities.sum()
        if total <= 0:
            probabilities = np.full(len(candidates), 1.0 / len(candidates))
        else:
            probabilities = probabilities / total
        recovered = rng.choice(
            candidates, size=budget, replace=False, p=probabilities
        )
        edge_mask[recovered] = True
    return SparsifierResult(
        graph=graph,
        edge_mask=edge_mask,
        tree_edge_ids=tree_ids,
        recovered_edge_ids=np.sort(recovered),
        config=config,
        rounds_log=[{"round": 1, "phase": "er_sampling",
                     "added": int(len(recovered))}],
    )
