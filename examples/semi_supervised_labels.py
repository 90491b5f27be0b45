"""Graph-based semi-supervised learning with a sparsified solver.

The paper's introduction lists semi-supervised learning among the
applications of Laplacian solvers.  This example implements the classic
harmonic label propagation: given a few labeled seed nodes, the label
field ``f`` minimizes the Laplacian quadratic form subject to the seeds,
which reduces to solving an SDD system

    (L + diag(anchors)) f = anchors * seed_labels

once per class — exactly the "solve the same matrix many times" regime
where a reusable sparsifier-preconditioner pays off.

Run:  python examples/semi_supervised_labels.py
"""

import numpy as np
import scipy.sparse as sp

from repro import (
    cholesky,
    laplacian,
    pcg,
    sparsify,
    triangular_mesh,
)
from repro.graph.laplacian import laplacian as graph_laplacian


def main() -> None:
    rng = np.random.default_rng(0)
    mesh = triangular_mesh(6000, shape="square", weights="smooth", seed=0)
    print(f"graph: {mesh.n} nodes, {mesh.edge_count} edges")

    # Ground truth: three graph-coherent regions — each node belongs to
    # the hop-nearest of three random centers (a Voronoi partition of
    # the mesh), the structure label propagation is meant to recover.
    centers = rng.choice(mesh.n, size=3, replace=False)
    indptr, neighbors, _ = mesh.adjacency()
    hop_distance = np.full((3, mesh.n), np.iinfo(np.int64).max, dtype=np.int64)
    for cls, center in enumerate(centers):
        dist = hop_distance[cls]
        dist[center] = 0
        frontier = [int(center)]
        level = 0
        while frontier:
            level += 1
            next_frontier = []
            for node in frontier:
                for nbr in neighbors[indptr[node]:indptr[node + 1]]:
                    if dist[nbr] > level:
                        dist[nbr] = level
                        next_frontier.append(int(nbr))
            frontier = next_frontier
    truth = hop_distance.argmin(axis=0)
    seeds = rng.choice(mesh.n, size=60, replace=False)
    anchor = np.zeros(mesh.n)
    anchor[seeds] = 10.0  # strong anchoring of labeled nodes

    L = graph_laplacian(mesh, shift=anchor, fmt="csr")

    # Preconditioner: factor the sparsifier's Laplacian (same anchors).
    result = sparsify(mesh, "proposed", edge_fraction=0.10, rounds=5)
    L_P = graph_laplacian(result.sparsifier, shift=anchor, fmt="csc")
    factor = cholesky(L_P)

    scores = np.zeros((mesh.n, 3))
    total_iterations = 0
    for cls in range(3):
        rhs = anchor * (truth == cls).astype(float)
        solve = pcg(L, rhs, M_solve=factor.solve, rtol=1e-8)
        scores[:, cls] = solve.x
        total_iterations += solve.iterations
        print(f"class {cls}: PCG converged in {solve.iterations} iterations")

    predicted = scores.argmax(axis=1)
    unlabeled = np.setdiff1d(np.arange(mesh.n), seeds)
    accuracy = float(np.mean(predicted[unlabeled] == truth[unlabeled]))
    print(
        f"\nlabel-propagation accuracy on {len(unlabeled)} unlabeled nodes: "
        f"{accuracy:.3f} (3 classes, 60 seeds, {total_iterations} total "
        f"PCG iterations through one reused preconditioner)"
    )


if __name__ == "__main__":
    main()
