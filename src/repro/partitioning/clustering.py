"""Spectral k-way clustering on top of the sparsifier stack.

Generalizes the Fiedler machinery (paper Sec. 4.3) from bipartition to
k clusters: a low-eigenvector embedding of the regularized Laplacian is
computed by block inverse (orthogonal) iteration — each step solves one
linear system per embedding column, either

* directly (factor the full Laplacian once, the dense reference), or
* by PCG preconditioned with a factored *sparsifier* Laplacian, the
  configuration the application benchmark measures — the sparsifier as
  a component of a downstream pipeline, not the endpoint,

and the rows of the embedding are grouped by a seeded k-means.
Quality is judged the downstream way (Li–Schild's argument): adjusted
Rand index against planted labels (:func:`adjusted_rand_index`) and
per-cluster conductance (:func:`cluster_conductances`), not condition
number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import GraphError
from repro.graph.graph import Graph
from repro.graph.laplacian import regularization_shift, regularized_laplacian
from repro.linalg.cholesky import cholesky
from repro.linalg.pcg import pcg
from repro.utils.rng import as_rng
from repro.utils.timers import Timer

__all__ = [
    "EmbeddingResult",
    "ClusteringResult",
    "spectral_embedding",
    "kmeans",
    "spectral_clustering",
    "cluster_conductances",
    "adjusted_rand_index",
]


@dataclass
class EmbeddingResult:
    """Low-eigenvector embedding and solver statistics."""

    vectors: np.ndarray        # (n, k) orthonormal embedding columns
    method: str                # "direct" | "pcg"
    steps: int                 # inverse-iteration steps taken
    avg_iterations: float      # mean PCG iterations per inner solve
    seconds: float             # embedding wall-clock (excl. factor setup)
    setup_seconds: float       # factorization / preconditioner setup
    memory_bytes: int          # factor memory footprint


@dataclass
class ClusteringResult:
    """Outcome of one spectral-clustering run."""

    labels: np.ndarray         # per-node cluster id in [0, k)
    k: int
    embedding: EmbeddingResult
    kmeans_iterations: int
    kmeans_seconds: float

    @property
    def avg_iterations(self) -> float:
        """Mean PCG iterations per inner embedding solve."""
        return self.embedding.avg_iterations


def spectral_embedding(
    graph: Graph,
    k: int,
    method: str = "direct",
    preconditioner=None,
    steps: int = 8,
    rtol: float = 1e-6,
    reg_rel: float = 1e-6,
    seed: int = 0,
) -> EmbeddingResult:
    """Embedding spanned by the *k* lowest non-trivial eigenvectors.

    Block inverse iteration on the regularized Laplacian: a random
    ``(n, k)`` block is repeatedly solved against, deflated against the
    all-ones vector (the trivial eigenvector) and re-orthonormalized by
    QR.  ``method="direct"`` factors the full Laplacian once;
    ``method="pcg"`` runs each inner solve through PCG with
    *preconditioner* (a factored sparsifier Laplacian, e.g. from
    :func:`repro.partitioning.build_partition_preconditioner`).

    Raises :class:`~repro.exceptions.GraphError` for ``k`` outside
    ``[1, n - 1]`` or a missing preconditioner in PCG mode.
    """
    n = graph.n
    if not 1 <= k <= n - 1:
        raise GraphError(f"embedding dimension k={k} must be in [1, {n - 1}]")
    if method not in ("direct", "pcg"):
        raise GraphError(f"unknown embedding method {method!r}")
    if method == "pcg" and preconditioner is None:
        raise GraphError("method='pcg' needs a preconditioner")
    shift = regularization_shift(graph, reg_rel)
    laplacian_g = regularized_laplacian(graph, shift, fmt="csr")
    rng = as_rng(seed)

    setup = Timer()
    factor = None
    with setup:
        if method == "direct":
            factor = cholesky(laplacian_g.tocsc())
    memory = (factor.memory_bytes() if factor is not None
              else preconditioner.memory_bytes())

    ones = np.full(n, 1.0 / np.sqrt(n))
    block = rng.standard_normal((n, k))
    block -= np.outer(ones, ones @ block)
    block, _ = np.linalg.qr(block)

    total_iterations = 0
    solves = 0
    run = Timer()
    with run:
        for _ in range(steps):
            if method == "direct":
                solved = np.column_stack(
                    [factor.solve(block[:, j]) for j in range(k)]
                )
            else:
                columns = []
                for j in range(k):
                    result = pcg(
                        laplacian_g,
                        block[:, j],
                        M_solve=preconditioner.solve,
                        rtol=rtol,
                        x0=block[:, j],
                    )
                    total_iterations += result.iterations
                    columns.append(result.x)
                solved = np.column_stack(columns)
            solves += k
            solved -= np.outer(ones, ones @ solved)
            block, _ = np.linalg.qr(solved)
    return EmbeddingResult(
        vectors=block,
        method=method,
        steps=steps,
        avg_iterations=total_iterations / max(solves, 1),
        seconds=run.elapsed,
        setup_seconds=setup.elapsed,
        memory_bytes=int(memory),
    )


def kmeans(points, k, seed: int = 0, iters: int = 64):
    """Seeded Lloyd's k-means with k-means++ initialization.

    Deterministic per seed (no scikit-learn dependency).  Returns
    ``(labels, iterations)`` where *iterations* is the number of Lloyd
    updates until assignment convergence (or *iters*).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    n = len(points)
    if not 1 <= k <= n:
        raise GraphError(f"kmeans needs 1 <= k <= {n}, got {k}")
    rng = as_rng(seed)

    # k-means++ seeding: spread the initial centers out.
    centers = [points[int(rng.integers(0, n))]]
    for _ in range(1, k):
        dist2 = np.min(
            [np.sum((points - c) ** 2, axis=1) for c in centers], axis=0
        )
        total = dist2.sum()
        if total <= 0:
            centers.append(points[int(rng.integers(0, n))])
            continue
        centers.append(points[int(rng.choice(n, p=dist2 / total))])
    centers = np.array(centers)

    labels = np.zeros(n, dtype=np.int64)
    for iteration in range(1, iters + 1):
        dist2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(dist2, axis=1)
        for j in range(k):
            members = points[new_labels == j]
            if len(members):
                centers[j] = members.mean(axis=0)
        if np.array_equal(new_labels, labels) and iteration > 1:
            return new_labels, iteration
        labels = new_labels
    return labels, iters


def spectral_clustering(
    graph: Graph,
    k: int,
    method: str = "direct",
    preconditioner=None,
    steps: int = 8,
    rtol: float = 1e-6,
    reg_rel: float = 1e-6,
    seed: int = 0,
) -> ClusteringResult:
    """Cluster *graph* into *k* groups via spectral embedding + k-means.

    The embedding uses ``k`` non-trivial low eigenvectors
    (:func:`spectral_embedding`, same *method*/*preconditioner*
    semantics); rows are normalized before the seeded k-means so
    clusters separate by direction, not magnitude.
    """
    embedding = spectral_embedding(
        graph, k, method=method, preconditioner=preconditioner,
        steps=steps, rtol=rtol, reg_rel=reg_rel, seed=seed,
    )
    rows = embedding.vectors
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    rows = rows / np.maximum(norms, 1e-12)
    timer = Timer()
    with timer:
        labels, iterations = kmeans(rows, k, seed=seed)
    return ClusteringResult(
        labels=labels,
        k=k,
        embedding=embedding,
        kmeans_iterations=iterations,
        kmeans_seconds=timer.elapsed,
    )


def cluster_conductances(graph: Graph, labels) -> np.ndarray:
    """Conductance ``cut(S) / min(vol(S), vol(V - S))`` per cluster.

    Lower is better; a planted partition recovered exactly yields one
    small value per block.  Empty clusters get conductance 1.0 (the
    worst value), so a collapsed clustering cannot look artificially
    good.
    """
    labels = np.asarray(labels)
    if labels.shape != (graph.n,):
        raise GraphError(f"labels must have shape ({graph.n},)")
    volumes = np.zeros(int(labels.max()) + 1)
    np.add.at(volumes, labels[graph.u], graph.w)
    np.add.at(volumes, labels[graph.v], graph.w)
    total = float(graph.w.sum()) * 2.0
    crossing = labels[graph.u] != labels[graph.v]
    cuts = np.zeros_like(volumes)
    np.add.at(cuts, labels[graph.u[crossing]], graph.w[crossing])
    np.add.at(cuts, labels[graph.v[crossing]], graph.w[crossing])
    conductances = np.ones_like(volumes)
    for j in range(len(volumes)):
        denom = min(volumes[j], total - volumes[j])
        if denom > 0:
            conductances[j] = cuts[j] / denom
    return conductances


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Adjusted Rand index between two labelings (1 = identical).

    Chance-corrected pair-counting agreement, invariant to label
    permutation; the clustering benchmark's quality score against
    planted partitions.  Implemented from the contingency table (no
    scikit-learn dependency).
    """
    labels_a = np.asarray(labels_a).ravel()
    labels_b = np.asarray(labels_b).ravel()
    if labels_a.shape != labels_b.shape:
        raise GraphError("label arrays must have the same shape")
    n = len(labels_a)
    if n == 0:
        raise GraphError("label arrays are empty")
    _, a_ids = np.unique(labels_a, return_inverse=True)
    _, b_ids = np.unique(labels_b, return_inverse=True)
    contingency = np.zeros((a_ids.max() + 1, b_ids.max() + 1))
    np.add.at(contingency, (a_ids, b_ids), 1.0)

    def comb2(x):
        return x * (x - 1.0) / 2.0

    sum_cells = comb2(contingency).sum()
    sum_rows = comb2(contingency.sum(axis=1)).sum()
    sum_cols = comb2(contingency.sum(axis=0)).sum()
    total = comb2(float(n))
    expected = sum_rows * sum_cols / total if total else 0.0
    maximum = 0.5 * (sum_rows + sum_cols)
    if maximum == expected:
        return 1.0
    return float((sum_cells - expected) / (maximum - expected))
