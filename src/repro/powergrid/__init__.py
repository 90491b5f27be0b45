"""Power-grid analysis substrate (paper Sec. 4.2).

Synthetic IBM/THU-style power-grid benchmarks, MNA assembly, DC
analysis, and backward-Euler transient simulation with either a direct
(factor-once) solver or a sparsifier-preconditioned PCG solver.
"""

from repro.powergrid.waveforms import PulsePattern, breakpoints_union
from repro.powergrid.netlist import PowerGridNetlist, CurrentLoad
from repro.powergrid.benchmarks import (
    make_pg_case,
    netlist_from_graph,
    PG_CASE_REGISTRY,
    PGCaseSpec,
)
from repro.powergrid.mna import conductance_matrix
from repro.powergrid.dc import dc_solve
from repro.powergrid.transient import (
    TransientResult,
    simulate_transient_direct,
    simulate_transient_pcg,
    build_sparsifier_preconditioner,
)

__all__ = [
    "PulsePattern",
    "breakpoints_union",
    "PowerGridNetlist",
    "CurrentLoad",
    "make_pg_case",
    "netlist_from_graph",
    "PG_CASE_REGISTRY",
    "PGCaseSpec",
    "conductance_matrix",
    "dc_solve",
    "TransientResult",
    "simulate_transient_direct",
    "simulate_transient_pcg",
    "build_sparsifier_preconditioner",
]
