"""DC (operating-point) analysis of a power grid: ``G x = u(0)``."""

from __future__ import annotations

from repro.linalg.cholesky import cholesky
from repro.linalg.pcg import pcg
from repro.powergrid.mna import conductance_matrix
from repro.powergrid.netlist import PowerGridNetlist

__all__ = ["dc_solve"]


def dc_solve(netlist: PowerGridNetlist, method="direct", preconditioner=None,
             rtol=1e-9):
    """Solve the DC operating point.

    Parameters
    ----------
    netlist:
        The power grid.
    method:
        ``"direct"`` (factor + solve) or ``"pcg"`` (requires
        *preconditioner*, a :class:`CholeskyFactor` of the sparsified
        conductance matrix).
    rtol:
        PCG tolerance when ``method="pcg"``.

    Returns
    -------
    (x, info)
        Node voltages and a dict with solver statistics.
    """
    G = conductance_matrix(netlist)
    rhs = netlist.source_vector(0.0)
    if method == "direct":
        factor = cholesky(G)
        x = factor.solve(rhs)
        return x, {"method": "direct", "factor_nnz": factor.nnz}
    if method == "pcg":
        if preconditioner is None:
            raise ValueError("pcg DC solve needs a preconditioner factor")
        result = pcg(
            G.tocsr(), rhs, M_solve=preconditioner.solve, rtol=rtol
        )
        return result.x, {
            "method": "pcg",
            "iterations": result.iterations,
            "converged": result.converged,
        }
    raise ValueError(f"unknown method {method!r}")
