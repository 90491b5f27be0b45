"""Sparsifier quality metrics (the columns of the paper's Table 1).

* ``kappa`` — relative condition number of ``(L_G, L_P)``;
* PCG iteration count / time with the factored sparsifier Laplacian as
  preconditioner and a random right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import GraphError
from repro.graph.components import connected_components
from repro.graph.graph import Graph
from repro.graph.laplacian import regularization_shift, regularized_laplacian
from repro.linalg.cholesky import cholesky
from repro.linalg.eigen import relative_condition_number
from repro.linalg.pcg import pcg
from repro.utils.rng import as_rng
from repro.utils.timers import Timer

__all__ = ["QualityReport", "evaluate_sparsifier", "pcg_performance"]


@dataclass
class QualityReport:
    """Quality of one sparsifier against its parent graph."""

    nodes: int
    graph_edges: int
    sparsifier_edges: int
    kappa: float
    factor_nnz: int
    pcg_iterations: int
    pcg_seconds: float
    pcg_converged: bool

    @property
    def density(self) -> float:
        """Sparsifier edges per node."""
        return self.sparsifier_edges / max(self.nodes, 1)


def evaluate_sparsifier(
    graph: Graph,
    sparsifier: Graph,
    reg_rel: float = 1e-6,
    rtol: float = 1e-3,
    rhs=None,
    seed: int = 0,
    kappa_tol: float = 1e-8,
) -> QualityReport:
    """Measure kappa and PCG performance of a sparsifier.

    Parameters
    ----------
    graph, sparsifier:
        Original graph ``G`` and its sparsifier ``P`` (same node set).
    reg_rel:
        Relative regularization shift (footnote 1); the *same* shift
        vector, derived from ``G``, is applied to both Laplacians.
    rtol:
        PCG relative-residual tolerance (paper: 1e-3 for Table 1).
    rhs:
        Right-hand side; random by default, as in the paper.

    Raises
    ------
    repro.exceptions.GraphError
        When *sparsifier* does not span *graph*: its node count differs,
        or it has more connected components.  The shift would keep the
        pencil nonsingular and report a kappa that measures only the
        shift.
    """
    if sparsifier.n != graph.n:
        raise GraphError(
            f"sparsifier has {sparsifier.n} nodes but the graph has "
            f"{graph.n}"
        )
    graph_parts, _ = connected_components(graph)
    sparsifier_parts, _ = connected_components(sparsifier)
    if sparsifier_parts > graph_parts:
        raise GraphError(
            f"sparsifier has {sparsifier_parts} connected components but "
            f"the graph has {graph_parts}; it does not span the graph"
        )
    shift = regularization_shift(graph, reg_rel)
    laplacian_g = regularized_laplacian(graph, shift, fmt="csr")
    laplacian_p = regularized_laplacian(sparsifier, shift)
    factor = cholesky(laplacian_p)
    kappa = relative_condition_number(
        laplacian_g, factor, laplacian_p, tol=kappa_tol, seed=seed
    )
    iterations, seconds, result = pcg_performance(
        laplacian_g, factor, rtol=rtol, rhs=rhs, seed=seed
    )
    return QualityReport(
        nodes=graph.n,
        graph_edges=graph.edge_count,
        sparsifier_edges=sparsifier.edge_count,
        kappa=float(kappa),
        factor_nnz=factor.nnz,
        pcg_iterations=iterations,
        pcg_seconds=seconds,
        pcg_converged=result.converged,
    )


def pcg_performance(laplacian_g, factor, rtol=1e-3, rhs=None, seed=0):
    """PCG iterations & wall time for ``L_G x = b`` preconditioned by *factor*.

    Returns ``(iterations, seconds, PCGResult)``.
    """
    n = laplacian_g.shape[0]
    if rhs is None:
        rng = as_rng(seed)
        rhs = rng.standard_normal(n)
    timer = Timer()
    with timer:
        result = pcg(laplacian_g, rhs, M_solve=factor.solve, rtol=rtol)
    return result.iterations, timer.elapsed, result
