"""The netlist's array-form source term ``u(t)`` against the per-load loop.

``PowerGridNetlist`` evaluates every pulse load as one array expression
per time step; ``oracles.source_vector`` adds one load at a time.  The
two must agree bit for bit, inside every simulator too.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from repro.graph import Graph
from repro.powergrid import (
    CurrentLoad,
    PowerGridNetlist,
    PulsePattern,
    build_sparsifier_preconditioner,
    dc_solve,
    make_pg_case,
    simulate_transient_direct,
    simulate_transient_pcg,
)
from repro.powergrid.transient import simulate_transient_direct_varied

_PS = 1e-12
_NODES = 6


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _netlist(loads):
    graph = Graph.from_edges(
        _NODES, [(i, i + 1, 1.0 + i) for i in range(_NODES - 1)])
    return PowerGridNetlist(
        graph=graph,
        capacitance=np.full(_NODES, 1e-12),
        pad_conductance=np.array([100.0, 0.0, 0.0, 50.0, 0.0, 0.0]),
        rail_voltage=np.full(_NODES, 1.8),
        loads=loads,
    )


def _corners(pattern, periods=3):
    """Every corner of the first *periods* pulses, and period multiples."""
    points = []
    for k in range(periods):
        start = pattern.delay + k * pattern.period
        points += [start, start + pattern.rise,
                   start + pattern.rise + pattern.width,
                   start + pattern.rise + pattern.width + pattern.fall,
                   k * pattern.period]
    return points


@st.composite
def pulses(draw):
    """Pulses on the 10 ps grid or off it, with zero width or off-time."""
    if draw(st.booleans()):
        unit = 10 * _PS
        rise, width, fall, delay = (unit * draw(st.integers(lo, hi))
                                    for lo, hi in ((1, 10), (0, 40),
                                                   (1, 10), (0, 50)))
    else:
        rise, fall = (draw(st.floats(1e-12, 1e-10)) for _ in range(2))
        width = draw(st.just(0.0) | st.floats(1e-12, 4e-10))
        delay = draw(st.floats(0.0, 5e-10))
    off = draw(st.just(0.0) | st.floats(1e-12, 2e-9))
    return PulsePattern(
        amplitude=draw(st.floats(1e-4, 5e-2)), delay=delay, rise=rise,
        width=width, fall=fall, period=rise + width + fall + off)


_loads = st.lists(
    st.builds(CurrentLoad, node=st.integers(0, 2), pattern=pulses(),
              sign=st.sampled_from([-1.0, 1.0])),
    max_size=8)
_SHORT = PulsePattern(3e-2, 0.0, 10 * _PS, 0.0, 10 * _PS, 20 * _PS)
_LONG = PulsePattern(7e-3, 5 * _PS, 10 * _PS, 30 * _PS, 10 * _PS, 1e-9)


@given(loads=_loads, extra=st.lists(st.floats(0.0, 6e-9), max_size=5))
@example(loads=[], extra=[1e-9])
@example(loads=[CurrentLoad(2, _SHORT), CurrentLoad(2, _LONG, sign=1.0),
                CurrentLoad(2, _SHORT)],
         extra=[i * _PS for i in range(61)])
@settings(max_examples=60, deadline=None)
def test_source_vector_matches_load_loop_bitwise(loads, extra):
    netlist = _netlist(loads)
    times = [0.0, *extra]
    for load in loads:
        times += _corners(load.pattern)
        times.append(load.pattern.delay * 0.5)  # before the first pulse
    for t in times:
        np.testing.assert_array_equal(
            _bits(netlist.source_vector(t)),
            _bits(oracles.source_vector(netlist, t)))


@given(pattern=pulses(), extra=st.lists(st.floats(0.0, 6e-9), max_size=5))
@settings(max_examples=60, deadline=None)
def test_pulse_value_matches_oracle_bitwise(pattern, extra):
    times = [0.0, pattern.delay * 0.5, *_corners(pattern), *extra]
    expected = _bits([oracles.pulse_value(pattern, t) for t in times])
    scalar = [pattern.value(t) for t in times]
    assert all(isinstance(v, float) for v in scalar)
    np.testing.assert_array_equal(_bits(scalar), expected)
    np.testing.assert_array_equal(
        _bits(pattern.value(np.asarray(times))), expected)


def test_appending_a_load_changes_the_result():
    """Nothing is cached on the netlist, whose ``loads`` list is mutable."""
    pattern = PulsePattern(1e-2, 0.0, 10 * _PS, 50 * _PS, 10 * _PS, 1e-9)
    netlist = _netlist([CurrentLoad(1, pattern)])
    before = netlist.source_vector(30 * _PS)
    run_before = simulate_transient_direct(
        netlist, t_end=100 * _PS, probes=[4])
    netlist.loads.append(CurrentLoad(4, pattern))
    after = netlist.source_vector(30 * _PS)
    assert after[4] == before[4] - 1e-2
    run_after = simulate_transient_direct(
        netlist, t_end=100 * _PS, probes=[4])
    assert run_after.probe(4)[-1] < run_before.probe(4)[-1]


@pytest.fixture(scope="module")
def case():
    netlist, _ = make_pg_case("ibmpg3t", scale=0.12, seed=4)
    factor, _, _ = build_sparsifier_preconditioner(
        netlist, method="grass", edge_fraction=0.10)
    return netlist, factor, [netlist.loads[0].node, netlist.loads[-1].node]


def _simulate_all(netlist, factor, probes):
    runs = {
        "direct": simulate_transient_direct(
            netlist, t_end=1e-9, probes=probes),
        "varied": simulate_transient_direct_varied(
            netlist, t_end=2e-9, probes=probes),
        "pcg": simulate_transient_pcg(
            netlist, factor, t_end=2e-9, probes=probes),
    }
    dc = {
        "direct": dc_solve(netlist)[0],
        "pcg": dc_solve(netlist, method="pcg", preconditioner=factor)[0],
    }
    return runs, dc


def test_simulators_match_the_oracle_bitwise(case, monkeypatch):
    netlist, factor, probes = case
    runs, dc = _simulate_all(netlist, factor, probes)
    monkeypatch.setattr(
        PowerGridNetlist, "_source_term",
        lambda self: partial(oracles.source_vector, self))
    oracle_runs, oracle_dc = _simulate_all(netlist, factor, probes)
    for name, run in runs.items():
        oracle = oracle_runs[name]
        np.testing.assert_array_equal(_bits(run.times), _bits(oracle.times))
        assert run.avg_iterations == oracle.avg_iterations
        for node in probes:
            np.testing.assert_array_equal(
                _bits(run.probe(node)), _bits(oracle.probe(node)))
    for name, x in dc.items():
        np.testing.assert_array_equal(_bits(x), _bits(oracle_dc[name]))


def test_stepping_loops_call_no_waveform(case, monkeypatch):
    netlist, factor, probes = case
    calls = []
    value = PulsePattern.value

    def spy(self, t):
        calls.append(t)
        return value(self, t)

    monkeypatch.setattr(PulsePattern, "value", spy)
    _simulate_all(netlist, factor, probes)
    assert calls == []
