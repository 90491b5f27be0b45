"""End-to-end integration tests across the whole pipeline.

These mirror the benchmark harness at a small scale: every paper
experiment's code path runs here in a couple of minutes, so a plain
``pytest tests/`` exercises the table/figure machinery too.
"""

import numpy as np
import pytest

from repro import (
    cholesky,
    evaluate_sparsifier,
    make_case,
    regularization_shift,
    regularized_laplacian,
    sparsify,
)
from repro.graph import CASE_REGISTRY
from repro.partitioning import (
    fiedler_vector,
    partition_relative_error,
    spectral_bipartition,
)
from repro.powergrid import (
    build_sparsifier_preconditioner,
    make_pg_case,
    simulate_transient_direct,
    simulate_transient_pcg,
)
from repro.powergrid.transient import max_probe_difference


@pytest.mark.parametrize("name", ["ecology2", "NACA0015", "G3_circuit"])
def test_table1_pipeline_small(name):
    """Table 1's full measurement pipeline on three case families."""
    graph, _ = make_case(name, scale=0.08, seed=0)
    proposed = sparsify(
        graph, "proposed", edge_fraction=0.10, rounds=3, seed=1
    )
    grass = sparsify(graph, "grass", edge_fraction=0.10, rounds=3, seed=1)
    q_prop = evaluate_sparsifier(graph, proposed.sparsifier, rtol=1e-3)
    q_grass = evaluate_sparsifier(graph, grass.sparsifier, rtol=1e-3)
    assert q_prop.sparsifier_edges == q_grass.sparsifier_edges
    assert q_prop.pcg_converged and q_grass.pcg_converged
    assert q_prop.kappa >= 1.0 and q_grass.kappa >= 1.0


def test_table2_pipeline_small():
    """Table 2's three solvers agree and report sane statistics."""
    netlist, _ = make_pg_case("ibmpg3t", scale=0.12, seed=1)
    probe = netlist.loads[0].node
    direct = simulate_transient_direct(
        netlist, t_end=2e-9, step=10e-12, probes=[probe]
    )
    rows = {}
    for method in ("grass", "proposed"):
        factor, _, _ = build_sparsifier_preconditioner(
            netlist, method=method, edge_fraction=0.10, rounds=2, seed=1
        )
        rows[method] = simulate_transient_pcg(
            netlist, factor, t_end=2e-9, probes=[probe]
        )
    for method, run in rows.items():
        assert run.steps < direct.steps
        assert run.memory_bytes <= direct.memory_bytes
        assert max_probe_difference(direct, run, probe) < 16e-3
    # Proposed preconditioner should not need more iterations than GRASS.
    assert rows["proposed"].avg_iterations <= rows["grass"].avg_iterations * 1.3


def test_table3_pipeline_small():
    """Table 3's direct-vs-iterative Fiedler comparison."""
    graph, _ = make_case("tmt_sym", scale=0.15, seed=2)
    direct = fiedler_vector(graph, method="direct", steps=5, seed=3)
    result = sparsify(graph, "proposed", edge_fraction=0.10, rounds=2)
    shift = regularization_shift(graph)
    factor = cholesky(regularized_laplacian(result.sparsifier, shift))
    iterative = fiedler_vector(
        graph, method="pcg", preconditioner=factor, steps=5, rtol=1e-7, seed=3
    )
    labels_d = spectral_bipartition(direct.vector)
    labels_i = spectral_bipartition(iterative.vector)
    assert partition_relative_error(labels_d, labels_i) < 0.05
    assert iterative.memory_bytes <= direct.memory_bytes


def test_all_three_sparsifiers_run_on_all_families():
    """Every sparsifier handles every registered topology family."""
    for name in ("ecology2", "thermal2", "G3_circuit"):
        graph, _ = make_case(name, scale=0.04, seed=3)
        for method, options in (
            ("proposed", dict(edge_fraction=0.05, rounds=2)),
            ("grass", dict(edge_fraction=0.05, rounds=2)),
            ("fegrass", dict(edge_fraction=0.05)),
        ):
            result = sparsify(graph, method, **options)
            assert result.edge_count >= graph.n - 1


def test_registry_sizes_are_ranked_like_paper():
    """Bigger paper cases map to bigger reproduction cases."""
    small = CASE_REGISTRY["parabolic"]
    big = CASE_REGISTRY["NLR"]
    assert small.paper_nodes < big.paper_nodes
    assert small.base_nodes < big.base_nodes


def test_real_mtx_file_roundtrip(tmp_path):
    """A user can export a case and re-load it as a real .mtx matrix."""
    from repro import read_graph_mtx, write_graph_mtx

    graph, _ = make_case("ecology2", scale=0.03, seed=4)
    path = tmp_path / "case.mtx"
    write_graph_mtx(path, graph)
    loaded, _ = read_graph_mtx(path)
    result = sparsify(loaded, "proposed", edge_fraction=0.05, rounds=2)
    assert result.edge_count > 0
