"""Power-grid netlist model.

A power grid is a resistive network (the :class:`~repro.graph.Graph`
holds wire *conductances* as edge weights) plus, per node:

* a capacitance to ground (the paper adds 1-10 pF caps, as in the IBM
  benchmarks);
* an optional *pad* connection — a conductance to the ideal supply rail
  (C4 bumps / package pins), modeled as a Norton equivalent so the MNA
  matrix stays SDD: pad current injection ``g_pad * V_rail`` and a
  diagonal conductance ``g_pad``;
* optional pulse current loads (cell current draw).

Both VDD and GND planes are representable: each node carries the rail
voltage of its net, and load currents leave VDD nodes / enter GND nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from repro.exceptions import SimulationError
from repro.graph.graph import Graph
from repro.powergrid.waveforms import PulsePattern, _pulse_values

__all__ = ["CurrentLoad", "PowerGridNetlist"]


@dataclass(frozen=True)
class CurrentLoad:
    """A pulse current source attached to one node.

    ``sign`` is -1 when the load draws current *out* of the node (VDD
    plane) and +1 when it pushes current *in* (GND return path).
    """

    node: int
    pattern: PulsePattern
    sign: float = -1.0


@dataclass
class PowerGridNetlist:
    """Complete description of a power grid for MNA analysis."""

    graph: Graph                      # wire conductances
    capacitance: np.ndarray           # per-node C to ground (farads)
    pad_conductance: np.ndarray       # per-node conductance to the rail
    rail_voltage: np.ndarray          # per-node ideal rail voltage
    loads: list = field(default_factory=list)
    name: str = "pg"

    def __post_init__(self):
        n = self.graph.n
        self.capacitance = np.asarray(self.capacitance, dtype=np.float64)
        self.pad_conductance = np.asarray(
            self.pad_conductance, dtype=np.float64
        )
        self.rail_voltage = np.asarray(self.rail_voltage, dtype=np.float64)
        for label, vector in (
            ("capacitance", self.capacitance),
            ("pad_conductance", self.pad_conductance),
            ("rail_voltage", self.rail_voltage),
        ):
            if vector.shape != (n,):
                raise SimulationError(
                    f"{label} must have shape ({n},), got {vector.shape}"
                )
        if np.any(self.capacitance < 0) or np.any(self.pad_conductance < 0):
            raise SimulationError("capacitance/pad conductance must be >= 0")
        if not np.any(self.pad_conductance > 0):
            raise SimulationError("netlist needs at least one pad")
        for load in self.loads:
            if not 0 <= load.node < n:
                raise SimulationError(f"load node {load.node} out of range")

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes (the conductance graph's vertex count)."""
        return self.graph.n

    def pad_nodes(self) -> np.ndarray:
        """Indices of nodes with a pad connection."""
        return np.flatnonzero(self.pad_conductance > 0)

    def load_patterns(self):
        """The waveform of every load (for breakpoint extraction)."""
        return [load.pattern for load in self.loads]

    def source_vector(self, t: float) -> np.ndarray:
        """MNA right-hand side ``u(t)``: pad injections + load currents."""
        return self._source_term()(t)

    def _source_term(self):
        """``t -> u(t)`` over the loads as they are now.

        Simulators build it once per call and evaluate it every step;
        it does not follow later edits to :attr:`loads`.
        """
        return _LoadSources(self)


class _LoadSources:
    """Struct-of-arrays view of a netlist's pad injections and loads.

    One array per :class:`CurrentLoad` node and sign and per
    :class:`PulsePattern` field, so every load current at time ``t``
    is one array expression rather than one waveform call per load.
    Currents add into ``u`` in load order (``np.add.at``), so loads
    sharing a node sum exactly as a loop over :attr:`loads` would.
    """

    def __init__(self, netlist: PowerGridNetlist):
        loads = netlist.loads
        self.base = netlist.pad_conductance * netlist.rail_voltage
        self.nodes = np.array([load.node for load in loads], dtype=np.int64)
        self.signs = np.array([load.sign for load in loads], dtype=np.float64)
        self.pulses = tuple(
            np.array([getattr(load.pattern, spec.name) for load in loads],
                     dtype=np.float64)
            for spec in fields(PulsePattern)
        )

    def __call__(self, t: float) -> np.ndarray:
        u = self.base.copy()
        np.add.at(u, self.nodes, self.signs * _pulse_values(t, *self.pulses))
        return u
