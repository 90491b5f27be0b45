"""Tests for transient simulation (direct vs sparsifier-PCG, Fig. 1)."""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.powergrid import (
    build_sparsifier_preconditioner,
    make_pg_case,
    simulate_transient_direct,
    simulate_transient_pcg,
)
from repro.powergrid.transient import max_probe_difference

_PS = 1e-12


@pytest.fixture(scope="module")
def small_case():
    netlist, _ = make_pg_case("ibmpg3t", scale=0.12, seed=4)
    vdd_probe = netlist.loads[0].node
    gnd_probe = netlist.loads[-1].node
    return netlist, vdd_probe, gnd_probe


@pytest.fixture(scope="module")
def direct_run(small_case):
    netlist, vdd, gnd = small_case
    return simulate_transient_direct(
        netlist, t_end=1.5e-9, step=10 * _PS, probes=[vdd, gnd]
    )


@pytest.fixture(scope="module")
def pcg_run(small_case):
    netlist, vdd, gnd = small_case
    factor, _, _ = build_sparsifier_preconditioner(
        netlist, method="proposed", edge_fraction=0.10, rounds=2
    )
    return simulate_transient_pcg(
        netlist, factor, t_end=1.5e-9, probes=[vdd, gnd]
    )


def test_direct_step_count(direct_run):
    assert direct_run.steps == 150  # 1.5 ns / 10 ps
    assert len(direct_run.times) == direct_run.steps + 1


def test_direct_records_probes(direct_run, small_case):
    _, vdd, gnd = small_case
    assert len(direct_run.probe(vdd)) == direct_run.steps + 1
    assert len(direct_run.probe(gnd)) == direct_run.steps + 1


def test_vdd_droop_is_physical(direct_run, small_case):
    """VDD node stays below rail and above a sane droop bound."""
    _, vdd, _ = small_case
    v = direct_run.probe(vdd)
    assert v.max() <= 1.8 + 1e-9
    assert v.min() > 1.0  # droop bounded


def test_gnd_bounce_is_physical(direct_run, small_case):
    _, _, gnd = small_case
    v = direct_run.probe(gnd)
    assert v.min() >= -1e-9
    assert v.max() < 0.8


def test_pcg_uses_fewer_steps(direct_run, pcg_run):
    """Variable stepping (<=200 ps) takes far fewer steps than 10 ps."""
    assert pcg_run.steps < direct_run.steps


def test_pcg_converges_every_step(pcg_run):
    assert pcg_run.avg_iterations > 0
    assert pcg_run.avg_iterations < 100
    assert pcg_run.extra["unconverged_steps"] == 0


def test_waveforms_agree(direct_run, pcg_run, small_case):
    """Fig. 1 criterion: direct vs iterative differ by < 16 mV."""
    _, vdd, gnd = small_case
    for node in (vdd, gnd):
        assert max_probe_difference(direct_run, pcg_run, node) < 16e-3


def test_memory_reported(direct_run, pcg_run):
    assert direct_run.memory_bytes > 0
    assert pcg_run.memory_bytes > 0
    # The sparsifier factor should be leaner than the full factor.
    assert pcg_run.memory_bytes <= direct_run.memory_bytes


def test_grass_preconditioner_also_works(small_case):
    netlist, vdd, _ = small_case
    factor, seconds, result = build_sparsifier_preconditioner(
        netlist, method="grass", edge_fraction=0.10, rounds=2
    )
    run = simulate_transient_pcg(netlist, factor, t_end=0.5e-9, probes=[vdd])
    assert run.steps > 0
    assert np.isfinite(run.probe(vdd)).all()


def test_unknown_sparsifier_method(small_case):
    netlist, _, _ = small_case
    with pytest.raises(ValueError):
        build_sparsifier_preconditioner(netlist, method="magic")


def test_direct_validates_step(small_case):
    netlist, _, _ = small_case
    with pytest.raises(SimulationError):
        simulate_transient_direct(netlist, t_end=1e-9, step=0.0)
    with pytest.raises(SimulationError):
        simulate_transient_direct(netlist, t_end=1e-12, step=1e-11)


def test_steps_never_cross_breakpoints(pcg_run, small_case):
    netlist, _, _ = small_case
    from repro.powergrid import breakpoints_union

    points = breakpoints_union(netlist.load_patterns(), 1.5e-9)
    times = pcg_run.times
    for bp in points:
        if bp >= times[-1]:
            continue
        # Every breakpoint coincides with some accepted time point.
        assert np.any(np.isclose(times, bp, rtol=0, atol=1e-18))


def test_steps_capped(pcg_run):
    assert np.diff(pcg_run.times).max() <= 200 * _PS + 1e-18


def test_step_schedule_matches_the_breakpoint_loop(small_case):
    """The variable-step schedule equals the written-out breakpoint loop."""
    from repro.powergrid import breakpoints_union
    from repro.powergrid.transient import _step_schedule

    netlist, _, _ = small_case
    t_end, max_step = 5e-9, 200 * _PS
    points = breakpoints_union(netlist.load_patterns(), t_end)
    expected = []
    t, bp_index = 0.0, 0
    while t < t_end - 1e-15:
        while bp_index < len(points) and points[bp_index] <= t + 1e-18:
            bp_index += 1
        next_bp = points[bp_index] if bp_index < len(points) else t_end
        t_next = min(next_bp, t + max_step, t_end)
        expected.append((t, t_next))
        t = t_next
    assert list(_step_schedule(points, t_end, max_step)) == expected
    assert len(expected) > 20


def test_unconverged_steps_are_counted(small_case):
    """A preconditioner that is not positive definite fails every solve."""

    class Negated:
        def solve(self, r):
            return -r

        def memory_bytes(self):
            return 0

    netlist, _, _ = small_case
    run = simulate_transient_pcg(netlist, Negated(), t_end=0.5e-9)
    assert not run.extra["dc"]["converged"]
    assert run.extra["unconverged_steps"] == run.steps + 1
