"""Spectral graph partitioning accelerated by sparsifier-PCG.

Reproduces the paper's Sec. 4.3 workflow: compute the Fiedler vector of
a finite-element mesh with 5 inverse power iterations, once with a
direct solver and once with PCG preconditioned by the trace-reduction
sparsifier, then compare the resulting bipartitions.

Run:  python examples/spectral_partitioning.py
"""

from repro import (
    cholesky,
    regularization_shift,
    regularized_laplacian,
    sparsify,
    triangular_mesh,
)
from repro.partitioning import (
    cut_weight,
    fiedler_vector,
    partition_relative_error,
    spectral_bipartition,
)


def main() -> None:
    mesh = triangular_mesh(8000, shape="airfoil", weights="smooth", seed=0)
    print(f"mesh: {mesh.n} nodes, {mesh.edge_count} edges")

    direct = fiedler_vector(mesh, method="direct", steps=5, seed=3)
    print(
        f"direct:    {direct.seconds:.2f} s, "
        f"mem = {direct.memory_bytes / 1e6:.1f} MB, "
        f"lambda_2 ~ {direct.eigenvalue_estimate:.3e}"
    )

    sparsifier = sparsify(
        mesh, "proposed", edge_fraction=0.10, rounds=5, seed=1
    )
    shift = regularization_shift(mesh)
    preconditioner = cholesky(
        regularized_laplacian(sparsifier.sparsifier, shift)
    )
    iterative = fiedler_vector(
        mesh, method="pcg", preconditioner=preconditioner, steps=5,
        rtol=1e-6, seed=3,
    )
    print(
        f"iterative: {iterative.seconds:.2f} s "
        f"(+ {sparsifier.setup_seconds:.2f} s sparsification), "
        f"mem = {iterative.memory_bytes / 1e6:.1f} MB, "
        f"avg PCG iters = {iterative.avg_iterations:.1f}"
    )

    labels_direct = spectral_bipartition(direct.vector)
    labels_iter = spectral_bipartition(iterative.vector)
    rel_err = partition_relative_error(labels_direct, labels_iter)
    print(
        f"partition RelErr = {rel_err:.2e} "
        f"(paper reports 1e-3 .. 6e-3); "
        f"cut weight direct = {cut_weight(mesh, labels_direct):.2f}, "
        f"iterative = {cut_weight(mesh, labels_iter):.2f}"
    )


if __name__ == "__main__":
    main()
