"""Differential kernel parity: every tier is bit-identical.

The kernel layer's whole contract is that the tier is an execution
detail — so these tests are differential: the pure-Python reference
tier is the oracle and every other tier must match it **bitwise** (no
tolerance; the design pins even the floating-point reductions, see
:mod:`repro.kernels.base`).  Hypothesis drives the adversarial inputs:
empty and singleton balls, zero-length ranges, disconnected graphs,
duplicate edge ids with both orientations, empty column selections.

The numba tier's loop bodies are exercised here even where numba is
absent, by running them interpreted (they are plain functions until
the probe compiles them); a numba-present environment additionally
runs the compiled versions through the registry.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.api.records import RunRecord
from repro.core._kernels import (
    ball_pair_edge_sum as legacy_ball_pair_edge_sum,
    ball_pair_edge_sum_flat as legacy_ball_pair_edge_sum_flat,
)
from repro.kernels import (
    NumbaKernels,
    PythonKernels,
    VectorKernels,
    available_kernel_sets,
    get_kernels,
)
from repro.kernels import numba_kernels as nk
from repro.kernels.base import KernelSet
from repro.utils.arrays import concat_ranges as legacy_concat_ranges


class InterpretedNumbaBodies(KernelSet):
    """The numba tier's loop bodies run interpreted (no compilation).

    Gives the numba code paths differential coverage on machines
    without numba; where numba is installed the registry's compiled
    tier is tested on top of this.
    """

    name = "numba-interpreted"
    description = "numba loop bodies, uncompiled (test-only)"

    def concat_ranges(self, starts, lengths):
        return nk._concat_ranges_py(
            np.ascontiguousarray(starts, dtype=np.int64),
            np.ascontiguousarray(lengths, dtype=np.int64),
        )

    def select_ball_pair_edges(self, sources, nbrs, eids, in_q_stamp, clock):
        return nk._select_py(
            np.ascontiguousarray(sources, dtype=np.int64),
            np.ascontiguousarray(nbrs, dtype=np.int64),
            np.ascontiguousarray(eids, dtype=np.int64),
            in_q_stamp, np.int64(clock),
        )

    def expand_frontier(self, indptr, neighbors, frontier, stamp, clock):
        return nk._expand_py(
            np.ascontiguousarray(indptr, dtype=np.int64),
            np.ascontiguousarray(neighbors, dtype=np.int64),
            np.ascontiguousarray(frontier, dtype=np.int64),
            stamp, np.int64(clock),
        )

    def gather_csc_columns(self, indptr, indices, data, cols):
        return nk._gather_py(
            np.ascontiguousarray(indptr, dtype=np.int64),
            np.ascontiguousarray(indices, dtype=np.int64),
            np.ascontiguousarray(data, dtype=np.float64),
            np.ascontiguousarray(cols, dtype=np.int64),
        )

    def probe_rhs(self, incidence, q):
        import scipy.sparse as sp

        csr = sp.csr_matrix(incidence)
        return nk._probe_rhs_py(
            np.ascontiguousarray(csr.indptr, dtype=np.int64),
            np.ascontiguousarray(csr.indices, dtype=np.int64),
            np.ascontiguousarray(csr.data, dtype=np.float64),
            csr.shape[0], csr.shape[1],
            np.ascontiguousarray(q, dtype=np.float64),
        )


ORACLE = PythonKernels()


def _challengers():
    sets = [VectorKernels(), InterpretedNumbaBodies()]
    if NumbaKernels.is_available():
        sets.append(NumbaKernels())
    return sets


CHALLENGERS = _challengers()
CHALLENGER_IDS = [k.name for k in CHALLENGERS]


def _random_graph(seed: int, n: int, extra_edges: int):
    """Adversarial weighted graph: may be disconnected, n >= 2."""
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, size=extra_edges)
    v = rng.integers(0, n, size=extra_edges)
    keep = u != v
    # A guaranteed edge so the graph is never edgeless; dedupe the
    # canonicalized pairs (Graph rejects duplicates).
    u = np.concatenate([[0], u[keep]])
    v = np.concatenate([[1], v[keep]])
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    _, first = np.unique(lo * n + hi, return_index=True)
    u, v = lo[first], hi[first]
    w = rng.uniform(0.1, 10.0, size=len(u))
    return repro.Graph(n, u, v, w)


graph_params = st.tuples(
    st.integers(min_value=0, max_value=10_000),  # seed
    st.integers(min_value=2, max_value=40),      # n
    st.integers(min_value=0, max_value=120),     # extra edges
)


class TestConcatRanges:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=200),
                st.integers(min_value=0, max_value=12),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_bitwise_parity(self, pairs):
        starts = np.asarray([p[0] for p in pairs], dtype=np.int64)
        lengths = np.asarray([p[1] for p in pairs], dtype=np.int64)
        expected = ORACLE.concat_ranges(starts, lengths)
        assert np.array_equal(
            legacy_concat_ranges(starts, lengths), expected
        )
        for kernels in CHALLENGERS:
            got = kernels.concat_ranges(starts, lengths)
            assert got.dtype == np.int64
            assert np.array_equal(got, expected), kernels.name

    def test_all_zero_lengths(self):
        starts = np.asarray([5, 9, 0], dtype=np.int64)
        lengths = np.zeros(3, dtype=np.int64)
        for kernels in CHALLENGERS:
            assert len(kernels.concat_ranges(starts, lengths)) == 0


class TestSelectBallPairEdges:
    @given(graph_params, st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_bitwise_parity(self, params, pick_seed):
        graph = _random_graph(*params)
        indptr, nbrs, eids = graph.adjacency()
        rng = np.random.default_rng(pick_seed)
        n = graph.n
        # Adversarial ball pair: possibly empty p-ball / empty q-ball.
        p_size = int(rng.integers(0, n + 1))
        q_size = int(rng.integers(0, n + 1))
        nodes_p = np.sort(rng.choice(n, size=p_size, replace=False))
        nodes_q = rng.choice(n, size=q_size, replace=False)
        clock = 17
        stamp = np.zeros(n, dtype=np.int64)
        stamp[nodes_q] = clock
        starts = indptr[nodes_p]
        lengths = indptr[nodes_p + 1] - starts
        flat = legacy_concat_ranges(starts, lengths)
        sources = np.repeat(nodes_p, lengths)
        args = (sources, nbrs[flat], eids[flat], stamp, clock)
        expected = ORACLE.select_ball_pair_edges(*args)
        # The contract the shared reduction depends on.
        assert np.array_equal(np.sort(expected[0]), expected[0])
        assert len(np.unique(expected[0])) == len(expected[0])
        for kernels in CHALLENGERS:
            got = kernels.select_ball_pair_edges(*args)
            for got_arr, exp_arr in zip(got, expected):
                assert np.array_equal(got_arr, exp_arr), kernels.name

    @pytest.mark.parametrize("kernels", CHALLENGERS, ids=CHALLENGER_IDS)
    def test_empty_input(self, kernels):
        empty = np.empty(0, dtype=np.int64)
        stamp = np.zeros(4, dtype=np.int64)
        for arr in kernels.select_ball_pair_edges(
            empty, empty, empty, stamp, 1
        ):
            assert len(arr) == 0
            assert arr.dtype == np.int64

    @pytest.mark.parametrize("kernels", CHALLENGERS, ids=CHALLENGER_IDS)
    def test_duplicate_eids_keep_first_orientation(self, kernels):
        # Both orientations of edge 7 qualify; first occurrence wins.
        sources = np.asarray([2, 3], dtype=np.int64)
        nbrs = np.asarray([3, 2], dtype=np.int64)
        eids = np.asarray([7, 7], dtype=np.int64)
        stamp = np.zeros(5, dtype=np.int64)
        stamp[[2, 3]] = 9
        ueids, usrc, unbr = kernels.select_ball_pair_edges(
            sources, nbrs, eids, stamp, 9
        )
        assert ueids.tolist() == [7]
        assert usrc.tolist() == [2]
        assert unbr.tolist() == [3]


class TestExpandFrontier:
    @given(graph_params, st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_bitwise_parity_and_stamps(self, params, pick_seed):
        graph = _random_graph(*params)
        indptr, nbrs, _ = graph.adjacency()
        rng = np.random.default_rng(pick_seed)
        n = graph.n
        frontier = rng.choice(
            n, size=int(rng.integers(0, n + 1)), replace=False
        ).astype(np.int64)
        prestamped = rng.choice(
            n, size=int(rng.integers(0, n + 1)), replace=False
        )
        clock = 5
        base = np.zeros(n, dtype=np.int64)
        base[prestamped] = clock
        base[frontier] = clock
        stamp_oracle = base.copy()
        expected = ORACLE.expand_frontier(
            indptr, nbrs, frontier, stamp_oracle, clock
        )
        for kernels in CHALLENGERS:
            stamp = base.copy()
            got = kernels.expand_frontier(indptr, nbrs, frontier, stamp, clock)
            assert np.array_equal(got, expected), kernels.name
            assert np.array_equal(stamp, stamp_oracle), kernels.name

    @pytest.mark.parametrize("kernels", CHALLENGERS, ids=CHALLENGER_IDS)
    def test_isolated_frontier_node(self, kernels):
        # Node 2 is disconnected: expanding from it yields nothing.
        graph = repro.Graph(3, [0], [1], [1.0])
        indptr, nbrs, _ = graph.adjacency()
        stamp = np.zeros(3, dtype=np.int64)
        stamp[2] = 1
        fresh = kernels.expand_frontier(
            indptr, nbrs, np.asarray([2], dtype=np.int64), stamp, 1
        )
        assert len(fresh) == 0


class TestGatherCscColumns:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=25),
        st.integers(min_value=1, max_value=25),
    )
    @settings(max_examples=60, deadline=None)
    def test_bitwise_parity(self, seed, rows, columns):
        import scipy.sparse as sp

        rng = np.random.default_rng(seed)
        Z = sp.random(
            rows, columns, density=float(rng.uniform(0.0, 0.5)),
            random_state=int(seed) % (2**31), format="csc",
        )
        count = int(rng.integers(0, 2 * columns))
        cols = rng.integers(0, columns, size=count)  # duplicates allowed
        expected = ORACLE.gather_csc_columns(Z.indptr, Z.indices, Z.data, cols)
        for kernels in CHALLENGERS:
            got = kernels.gather_csc_columns(Z.indptr, Z.indices, Z.data, cols)
            for got_arr, exp_arr in zip(got, expected):
                assert np.array_equal(got_arr, exp_arr), kernels.name

    @pytest.mark.parametrize("kernels", CHALLENGERS, ids=CHALLENGER_IDS)
    def test_matches_extract_columns(self, kernels):
        import scipy.sparse as sp

        from repro.linalg.spai import extract_columns

        Z = sp.random(30, 20, density=0.3, random_state=7, format="csc")
        cols = np.asarray([0, 5, 5, 19, 3], dtype=np.int64)
        expected = extract_columns(Z, cols, kernels=VectorKernels())
        got = extract_columns(Z, cols, kernels=kernels)
        for got_arr, exp_arr in zip(got, expected):
            assert np.array_equal(got_arr, exp_arr)


class TestProbeRhs:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_bitwise_parity_with_scipy_matvec(self, seed, m, n):
        import scipy.sparse as sp

        rng = np.random.default_rng(seed)
        incidence = sp.random(
            m, n, density=float(rng.uniform(0.05, 0.6)),
            random_state=int(seed) % (2**31), format="csr",
        )
        q = rng.standard_normal(m)
        expected = incidence.T @ q  # the historical expression
        for kernels in [ORACLE] + CHALLENGERS:
            got = kernels.probe_rhs(incidence, q)
            assert np.array_equal(got, expected), kernels.name


class TestScoringCompositions:
    @given(graph_params, st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_ball_pair_edge_sum_bitwise(self, params, pick_seed):
        graph = _random_graph(*params)
        indptr, nbrs, eids = graph.adjacency()
        rng = np.random.default_rng(pick_seed)
        n = graph.n
        nodes_p = np.sort(rng.choice(
            n, size=int(rng.integers(0, n + 1)), replace=False
        )).astype(np.int64)
        nodes_q = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        clock = 3
        stamp = np.zeros(n, dtype=np.int64)
        stamp[nodes_q] = clock
        values = rng.standard_normal(n)
        expected = legacy_ball_pair_edge_sum(
            indptr, nbrs, eids, graph.w, nodes_p, stamp, clock, values
        )
        for kernels in [ORACLE] + CHALLENGERS:
            got = kernels.ball_pair_edge_sum(
                indptr, nbrs, eids, graph.w, nodes_p, stamp, clock, values
            )
            # Bitwise: the reduction is one shared numpy expression.
            assert got == expected, kernels.name

    def test_flat_variant_matches_legacy(self):
        graph = _random_graph(3, 25, 80)
        indptr, nbrs, eids = graph.adjacency()
        rng = np.random.default_rng(0)
        nodes_p = np.sort(rng.choice(25, size=10, replace=False))
        stamp = np.zeros(25, dtype=np.int64)
        stamp[rng.choice(25, size=12, replace=False)] = 4
        values = rng.standard_normal(25)
        starts = indptr[nodes_p]
        lengths = indptr[nodes_p + 1] - starts
        flat = legacy_concat_ranges(starts, lengths)
        args = (
            np.repeat(nodes_p, lengths), nbrs[flat], eids[flat],
            graph.w, stamp, 4, values,
        )
        expected = legacy_ball_pair_edge_sum_flat(*args)
        for kernels in [ORACLE] + CHALLENGERS:
            assert kernels.ball_pair_edge_sum_flat(*args) == expected


class TestEndToEndFingerprints:
    """Every registered method × every available tier: byte-equal records."""

    @pytest.mark.parametrize("method", repro.list_methods())
    def test_fingerprint_byte_equal_across_tiers(self, method, small_grid):
        serialized = {}
        for tier in available_kernel_sets():
            result = repro.sparsify(
                small_grid, method=method, edge_fraction=0.15, seed=1,
                kernels=tier,
            )
            record = RunRecord.from_result(result, method=method, label="g")
            assert record.environment["kernels"] == tier
            assert record.config["kernels"] == tier
            serialized[tier] = json.dumps(record.fingerprint(), sort_keys=True)
        reference = serialized["python"]
        for tier, payload in serialized.items():
            assert payload == reference, (method, tier)

    def test_fingerprint_strips_kernel_keys(self, small_grid):
        result = repro.sparsify(
            small_grid, method="proposed", edge_fraction=0.1, seed=0,
            kernels="python",
        )
        record = RunRecord.from_result(result, method="proposed", label="g")
        fingerprint = record.fingerprint()
        assert "kernels" not in fingerprint["config"]
        assert "kernels" not in fingerprint["environment"]
        assert "kernel_capabilities" not in fingerprint["environment"]
        # Stripping must not mutate the record itself.
        assert record.config["kernels"] == "python"
        assert record.environment["kernels"] == "python"

    def test_explicit_tiers_match_default_auto(self, small_grid):
        default = repro.sparsify(
            small_grid, method="proposed", edge_fraction=0.15, seed=2
        )
        explicit = repro.sparsify(
            small_grid, method="proposed", edge_fraction=0.15, seed=2,
            kernels="python",
        )
        fp_default = RunRecord.from_result(default, "proposed").fingerprint()
        fp_explicit = RunRecord.from_result(explicit, "proposed").fingerprint()
        assert json.dumps(fp_default, sort_keys=True) == json.dumps(
            fp_explicit, sort_keys=True
        )


class TestRegistryTierObjects:
    def test_instances_cached_and_hashable(self):
        assert get_kernels("vector") is get_kernels("vector")
        assert get_kernels("vector") == VectorKernels()
        assert hash(get_kernels("python")) == hash(PythonKernels())
        assert get_kernels("python") != get_kernels("vector")
