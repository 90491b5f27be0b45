"""Tests for the PG netlist model and MNA assembly."""

import numpy as np
import pytest

import oracles
from repro.exceptions import SimulationError
from repro.graph import Graph
from repro.powergrid import (
    CurrentLoad,
    PowerGridNetlist,
    PulsePattern,
    conductance_matrix,
    dc_solve,
    simulate_transient_direct,
)

_PS = 1e-12


@pytest.fixture()
def tiny_netlist():
    """3-node chain: pad at node 0, load at node 2."""
    graph = Graph.from_edges(3, [(0, 1, 2.0), (1, 2, 1.0)])
    pattern = PulsePattern(1e-3, 0.0, 50 * _PS, 100 * _PS, 50 * _PS, 1000 * _PS)
    return PowerGridNetlist(
        graph=graph,
        capacitance=np.array([1e-12, 2e-12, 3e-12]),
        pad_conductance=np.array([100.0, 0.0, 0.0]),
        rail_voltage=np.array([1.0, 1.0, 1.0]),
        loads=[CurrentLoad(2, pattern, sign=-1.0)],
    )


def test_conductance_matrix(tiny_netlist):
    G = conductance_matrix(tiny_netlist).toarray()
    expected = np.array(
        [[102.0, -2.0, 0.0], [-2.0, 3.0, -1.0], [0.0, -1.0, 1.0]]
    )
    np.testing.assert_allclose(G, expected)


def test_conductance_is_spd(tiny_netlist):
    G = conductance_matrix(tiny_netlist).toarray()
    assert np.linalg.eigvalsh(G).min() > 0


def test_backward_euler_matrix(tiny_netlist):
    """The direct transient's first step solves Eq. 21 with the system
    matrix ``G + C/h`` assembled from its definition."""
    h = 10 * _PS
    result = simulate_transient_direct(tiny_netlist, t_end=2 * h, step=h,
                                       probes=range(3))
    x0, _ = dc_solve(tiny_netlist, method="direct")
    A = oracles.backward_euler_matrix(tiny_netlist, h).toarray()
    rhs = tiny_netlist.capacitance / h * x0 + tiny_netlist.source_vector(h)
    np.testing.assert_allclose(
        [result.probes[p][1] for p in range(3)],
        np.linalg.solve(A, rhs), rtol=1e-9,
    )


def test_source_vector_includes_pads_and_loads(tiny_netlist):
    # At the pulse plateau the load draws 1 mA out of node 2.
    u = tiny_netlist.source_vector(100 * _PS)
    np.testing.assert_allclose(u, [100.0, 0.0, -1e-3])


def test_pad_nodes(tiny_netlist):
    assert tiny_netlist.pad_nodes().tolist() == [0]


def test_validation_rejects_bad_shapes():
    graph = Graph.from_edges(2, [(0, 1, 1.0)])
    with pytest.raises(SimulationError):
        PowerGridNetlist(
            graph=graph,
            capacitance=np.ones(3),
            pad_conductance=np.array([1.0, 0.0]),
            rail_voltage=np.ones(2),
        )


def test_validation_rejects_no_pads():
    graph = Graph.from_edges(2, [(0, 1, 1.0)])
    with pytest.raises(SimulationError):
        PowerGridNetlist(
            graph=graph,
            capacitance=np.ones(2) * 1e-12,
            pad_conductance=np.zeros(2),
            rail_voltage=np.ones(2),
        )


def test_validation_rejects_bad_load_node():
    graph = Graph.from_edges(2, [(0, 1, 1.0)])
    pattern = PulsePattern(1e-3, 0, 1e-12, 0, 1e-12, 1e-9)
    with pytest.raises(SimulationError):
        PowerGridNetlist(
            graph=graph,
            capacitance=np.ones(2) * 1e-12,
            pad_conductance=np.array([1.0, 0.0]),
            rail_voltage=np.ones(2),
            loads=[CurrentLoad(5, pattern)],
        )


def test_dc_voltage_drop(tiny_netlist):
    """DC with constant load: V follows pad - I*R along the chain."""
    from repro.powergrid import dc_solve

    x, info = dc_solve(tiny_netlist, method="direct")
    # At t=0 the load is 0 (pulse starts rising at t=0+), so all nodes
    # sit at the pad-driven equilibrium ~ 1.0 V.
    np.testing.assert_allclose(x, 1.0, rtol=1e-9)
