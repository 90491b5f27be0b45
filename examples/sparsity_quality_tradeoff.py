"""Edge budget vs sparsifier quality (the Fig. 2 trade-off, generalized).

Sweeps the fraction of recovered off-tree edges from 2% to 30% of |V|
on a finite-element mesh and prints how kappa, PCG iterations and the
factorization size respond, for both the proposed method and GRASS.

Run:  python examples/sparsity_quality_tradeoff.py
"""

from repro import evaluate_sparsifier, sparsify, triangular_mesh


def main() -> None:
    mesh = triangular_mesh(6000, shape="disk", weights="smooth", seed=0)
    print(f"mesh: {mesh.n} nodes, {mesh.edge_count} edges\n")
    print(f"{'fraction':>8} | {'method':>8} | {'edges':>6} | "
          f"{'kappa':>8} | {'iters':>5} | {'factor_nnz':>10}")
    for fraction in (0.02, 0.05, 0.10, 0.20, 0.30):
        for label, method in (("proposed", "proposed"), ("GRASS", "grass")):
            result = sparsify(
                mesh, method, edge_fraction=fraction, rounds=5, seed=1
            )
            quality = evaluate_sparsifier(mesh, result.sparsifier)
            print(
                f"{fraction:8.2f} | {label:>8} | "
                f"{quality.sparsifier_edges:6d} | {quality.kappa:8.1f} | "
                f"{quality.pcg_iterations:5d} | {quality.factor_nnz:10d}"
            )


if __name__ == "__main__":
    main()
