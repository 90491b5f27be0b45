"""Backward-Euler transient simulation (Eq. 21 and Table 2 of the paper).

Two solver strategies, mirroring the paper's comparison:

* **Direct, fixed step** (:func:`simulate_transient_direct`) — factor
  ``A = G + C/h`` once and reuse it for every step.  Efficient only
  because ``h`` is pinned to the smallest breakpoint spacing of the
  current-source waveforms (10 ps here), which forces many steps.
* **PCG, variable step** (:func:`simulate_transient_pcg`) — steps jump
  from breakpoint to breakpoint (capped at ``max_step`` = 200 ps for
  error control); the system matrix changes with ``h`` but PCG only
  needs matvecs, and the preconditioner — the factored *sparsifier* of
  the conductance matrix, built once at DC — is reused throughout.

Both record per-node probe waveforms so Fig. 1 can be regenerated, and
report runtime / steps / average PCG iterations / memory (Table 2's
columns).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.api import sparsify
from repro.exceptions import SimulationError
from repro.graph.laplacian import laplacian
from repro.linalg.cholesky import cholesky
from repro.linalg.pcg import pcg
from repro.powergrid.dc import dc_solve
from repro.powergrid.mna import conductance_matrix
from repro.powergrid.netlist import PowerGridNetlist
from repro.powergrid.waveforms import breakpoints_union
from repro.utils.timers import Timer

__all__ = [
    "TransientResult",
    "simulate_transient_direct",
    "simulate_transient_direct_varied",
    "simulate_transient_pcg",
    "build_sparsifier_preconditioner",
    "max_probe_difference",
]


@dataclass
class TransientResult:
    """Waveforms and solver statistics from one transient run."""

    method: str
    times: np.ndarray
    probes: dict                      # node -> voltage array
    steps: int
    avg_iterations: float
    transient_seconds: float
    setup_seconds: float
    memory_bytes: int
    extra: dict = field(default_factory=dict)

    def probe(self, node: int) -> np.ndarray:
        """Voltage of probed *node* at each entry of ``times``."""
        return self.probes[int(node)]


def _record(probes, store, x):
    for node in probes:
        store[node].append(float(x[node]))


def _step_schedule(points, t_end, max_step):
    """Steps ``(t, t_next)`` from 0 to *t_end*.

    Each step ends at the next breakpoint in *points* (sorted), at
    ``t + max_step`` or at *t_end*, whichever comes first, so no step
    crosses a waveform corner; with no *points* the steps are fixed.
    """
    t = 0.0
    bp_index = 0
    while t < t_end - 1e-15:
        while bp_index < len(points) and points[bp_index] <= t + 1e-18:
            bp_index += 1
        next_bp = points[bp_index] if bp_index < len(points) else t_end
        t_next = min(next_bp, t + max_step, t_end)
        yield t, t_next
        t = t_next


def simulate_transient_direct(
    netlist: PowerGridNetlist,
    t_end: float = 5e-9,
    step: float = 10e-12,
    probes=(),
):
    """Fixed-step backward Euler with a factor-once direct solver."""
    if step <= 0 or t_end <= step:
        raise SimulationError("need 0 < step < t_end")
    probes = [int(p) for p in probes]
    setup = Timer()
    with setup:
        G = conductance_matrix(netlist)
        cap = netlist.capacitance
        A = (G + sp.diags(cap / step)).tocsc()
        factor = cholesky(A)
        x, _ = dc_solve(netlist, method="direct")
        source = netlist._source_term()
    store = {p: [float(x[p])] for p in probes}
    times = [0.0]
    scale = cap / step
    run = Timer()
    steps = 0
    with run:
        for _, t_next in _step_schedule((), t_end, step):
            rhs = scale * x + source(t_next)
            x = factor.solve(rhs)
            _record(probes, store, x)
            times.append(t_next)
            steps += 1
    memory = factor.memory_bytes() + int(A.nnz) * 12
    return TransientResult(
        method="direct",
        times=np.asarray(times),
        probes={p: np.asarray(v) for p, v in store.items()},
        steps=steps,
        avg_iterations=0.0,
        transient_seconds=run.elapsed,
        setup_seconds=setup.elapsed,
        memory_bytes=memory,
        extra={"factor_nnz": factor.nnz, "fixed_step": step},
    )


def simulate_transient_direct_varied(
    netlist: PowerGridNetlist,
    t_end: float = 5e-9,
    max_step: float = 200e-12,
    probes=(),
):
    """Variable-step backward Euler with a *direct* solver.

    The paper's Sec. 4.2 argument against this configuration: every
    time the step size changes, ``A = G + C/h`` changes and must be
    re-factored, which dominates the runtime.  Provided for the
    step-policy ablation benchmark; refactorizations are counted in
    ``extra["refactorizations"]``.
    """
    probes = [int(p) for p in probes]
    setup = Timer()
    with setup:
        G = conductance_matrix(netlist)
        cap = netlist.capacitance
        x, _ = dc_solve(netlist, method="direct")
        points = breakpoints_union(netlist.load_patterns(), t_end)
        source = netlist._source_term()
    store = {p: [float(x[p])] for p in probes}
    times = [0.0]
    run = Timer()
    refactorizations = 0
    factor = None
    current_h = None
    steps = 0
    with run:
        for t, t_next in _step_schedule(points, t_end, max_step):
            h = t_next - t
            if factor is None or abs(h - current_h) > 1e-18:
                A = (G + sp.diags(cap / h)).tocsc()
                factor = cholesky(A)
                current_h = h
                refactorizations += 1
            rhs = (cap / h) * x + source(t_next)
            x = factor.solve(rhs)
            _record(probes, store, x)
            times.append(t_next)
            steps += 1
    memory = factor.memory_bytes() + int(G.nnz) * 12
    return TransientResult(
        method="direct-varied",
        times=np.asarray(times),
        probes={p: np.asarray(v) for p, v in store.items()},
        steps=steps,
        avg_iterations=0.0,
        transient_seconds=run.elapsed,
        setup_seconds=setup.elapsed,
        memory_bytes=memory,
        extra={"refactorizations": refactorizations, "max_step": max_step},
    )


def build_sparsifier_preconditioner(
    netlist: PowerGridNetlist,
    method: str = "proposed",
    edge_fraction: float = 0.10,
    seed: int = 0,
    **sparsifier_kwargs,
):
    """Sparsify the PG conductance graph and factor the result.

    Returns ``(factor, sparsify_seconds, SparsifierResult)``.  The
    preconditioner is ``chol(L_P + diag(g_pad))`` — the sparsifier's
    Laplacian grounded by the same pad conductances as the full grid,
    which is exactly how the paper reuses the DC-analysis preconditioner
    for every transient step.

    *method* is any registered sparsifier
    (:func:`repro.api.list_methods`); unknown methods raise
    :class:`~repro.exceptions.UnknownMethodError` and options the
    method does not accept raise
    :class:`~repro.exceptions.UnknownOptionError`.
    """
    result = sparsify(
        netlist.graph,
        method=method,
        edge_fraction=edge_fraction,
        seed=seed,
        **sparsifier_kwargs,
    )
    sparsifier = result.sparsifier
    matrix = laplacian(sparsifier, shift=netlist.pad_conductance, fmt="csc")
    factor = cholesky(matrix)
    return factor, result.setup_seconds, result


def simulate_transient_pcg(
    netlist: PowerGridNetlist,
    preconditioner,
    t_end: float = 5e-9,
    max_step: float = 200e-12,
    rtol: float = 1e-6,
    probes=(),
):
    """Variable-step backward Euler with sparsifier-preconditioned PCG.

    Steps land exactly on waveform breakpoints (never crossing one) and
    are capped at *max_step*; the preconditioner (from
    :func:`build_sparsifier_preconditioner`) is fixed for the whole run.
    PCG solves that miss *rtol*, the DC operating point included, are
    counted in ``extra["unconverged_steps"]``.
    """
    probes = [int(p) for p in probes]
    setup = Timer()
    with setup:
        G = conductance_matrix(netlist, fmt="csr")
        cap = netlist.capacitance
        x, dc_info = dc_solve(
            netlist, method="pcg", preconditioner=preconditioner, rtol=rtol
        )
        points = breakpoints_union(netlist.load_patterns(), t_end)
        source = netlist._source_term()
    store = {p: [float(x[p])] for p in probes}
    times = [0.0]
    run = Timer()
    total_iterations = 0
    unconverged = 0 if dc_info["converged"] else 1
    steps = 0
    with run:
        for t, t_next in _step_schedule(points, t_end, max_step):
            h = t_next - t
            scale = cap / h

            def matvec(v, scale=scale):
                return G @ v + scale * v

            rhs = scale * x + source(t_next)
            result = pcg(
                matvec,
                rhs,
                M_solve=preconditioner.solve,
                rtol=rtol,
                x0=x,
            )
            x = result.x
            total_iterations += result.iterations
            unconverged += not result.converged
            _record(probes, store, x)
            times.append(t_next)
            steps += 1
    memory = preconditioner.memory_bytes() + int(G.nnz) * 12
    return TransientResult(
        method="pcg",
        times=np.asarray(times),
        probes={p: np.asarray(v) for p, v in store.items()},
        steps=steps,
        avg_iterations=total_iterations / max(steps, 1),
        transient_seconds=run.elapsed,
        setup_seconds=setup.elapsed,
        memory_bytes=memory,
        extra={"dc": dc_info, "max_step": max_step,
               "unconverged_steps": unconverged},
    )


def max_probe_difference(result_a: TransientResult, result_b: TransientResult,
                         node: int) -> float:
    """Max |V_a(t) - V_b(t)| over a common time grid (Fig. 1 check)."""
    node = int(node)
    grid = np.union1d(result_a.times, result_b.times)
    va = np.interp(grid, result_a.times, result_a.probe(node))
    vb = np.interp(grid, result_b.times, result_b.probe(node))
    return float(np.max(np.abs(va - vb)))
