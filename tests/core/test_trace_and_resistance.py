"""Tests for trace estimators and effective resistances."""

import numpy as np
import pytest

from oracles import (
    effective_resistance,
    effective_resistances,
    trace_ratio_exact,
    tree_resistances,
)
from repro.graph import (
    Graph,
    laplacian,
    regularization_shift,
    regularized_laplacian,
)
from repro.linalg import cholesky
from repro.tree import RootedForest, mewst


class TestEffectiveResistance:
    def test_series_resistors(self, path_graph):
        """R(0,4) on a path = sum of 1/w."""
        shift = regularization_shift(path_graph, 1e-9)
        L = regularized_laplacian(path_graph, shift)
        factor = cholesky(L)
        r = effective_resistance(factor.solve, 0, 4, path_graph.n)
        assert r == pytest.approx(1 + 0.5 + 0.25 + 2.0, rel=1e-5)

    def test_parallel_resistors(self):
        """Two parallel unit edges between the same nodes -> R = 1/2."""
        # Model with a 2-path of weight 2 each, in parallel with an edge.
        g = Graph.from_edges(3, [(0, 1, 2.0), (1, 2, 2.0), (0, 2, 1.0)])
        shift = regularization_shift(g, 1e-9)
        factor = cholesky(regularized_laplacian(g, shift))
        r = effective_resistance(factor.solve, 0, 2, 3)
        assert r == pytest.approx(0.5, rel=1e-5)

    def test_matches_tree_resistance_on_tree(self, small_grid):
        tree_ids = mewst(small_grid)
        forest = RootedForest(small_grid, tree_ids)
        shift = regularization_shift(small_grid, 1e-9)
        factor = cholesky(
            regularized_laplacian(small_grid.subgraph(tree_ids), shift)
        )
        rng = np.random.default_rng(0)
        pairs = rng.integers(0, small_grid.n, size=(10, 2))
        rs = effective_resistances(factor.solve, pairs, small_grid.n)
        expected, _ = tree_resistances(forest, pairs[:, 0], pairs[:, 1])
        np.testing.assert_allclose(rs, expected, rtol=1e-4, atol=1e-9)

    def test_subgraph_resistance_dominates(self, small_grid):
        """Removing edges can only increase effective resistance."""
        shift = regularization_shift(small_grid, 1e-9)
        full = cholesky(regularized_laplacian(small_grid, shift))
        tree = cholesky(
            regularized_laplacian(small_grid.subgraph(mewst(small_grid)), shift)
        )
        rng = np.random.default_rng(1)
        for _ in range(10):
            p, q = rng.integers(0, small_grid.n, size=2)
            if p == q:
                continue
            r_full = effective_resistance(full.solve, int(p), int(q), small_grid.n)
            r_tree = effective_resistance(tree.solve, int(p), int(q), small_grid.n)
            assert r_tree >= r_full - 1e-9


class TestTraceRatio:
    def test_identical_graphs_trace_is_n(self, small_grid):
        shift = regularization_shift(small_grid)
        L = regularized_laplacian(small_grid, shift)
        assert trace_ratio_exact(L, L) == pytest.approx(small_grid.n)

    def test_trace_upper_bounds_kappa(self, small_grid):
        """Eq. (5): kappa <= Trace."""
        import scipy.linalg as sla

        shift = regularization_shift(small_grid)
        L_G = regularized_laplacian(small_grid, shift)
        tree = small_grid.subgraph(mewst(small_grid))
        L_T = regularized_laplacian(tree, shift)
        trace = trace_ratio_exact(L_G, L_T)
        eigenvalues = sla.eigh(L_G.toarray(), L_T.toarray(), eigvals_only=True)
        assert eigenvalues.max() <= trace + 1e-9
