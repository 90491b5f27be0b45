"""Modified nodal analysis (MNA) assembly.

With all voltage sources Norton-transformed at the pads, the MNA system
for a power grid reduces to node equations only::

    (L_G + diag(g_pad)) x  +  C dx/dt  =  u(t)

where ``L_G`` is the wire-conductance Laplacian.  Backward Euler at
step ``h`` gives Eq. (21) of the paper:

    (G + C/h) x(t+h) = (C/h) x(t) + u(t+h)

``repro.powergrid.transient`` assembles ``G + C/h`` from
:func:`conductance_matrix` and the netlist's ``capacitance`` itself.
"""

from __future__ import annotations

from repro.graph.laplacian import laplacian
from repro.powergrid.netlist import PowerGridNetlist

__all__ = ["conductance_matrix"]


def conductance_matrix(netlist: PowerGridNetlist, fmt: str = "csc"):
    """``G = L_graph + diag(pad conductances)`` (nonsingular SDD)."""
    return laplacian(netlist.graph, shift=netlist.pad_conductance, fmt=fmt)
