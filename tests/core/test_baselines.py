"""Tests for the GRASS and feGRASS baselines."""

import numpy as np
import pytest

from repro.core import (
    GrassConfig,
    evaluate_sparsifier,
    fegrass_sparsify,
    grass_sparsify,
    perturbation_criticality,
    trace_reduction_sparsify,
)
from repro.exceptions import GraphError
from repro.graph import (
    connected_components,
    grid2d,
    regularization_shift,
    regularized_laplacian,
)
from repro.linalg import cholesky
from repro.tree import mewst


@pytest.fixture(scope="module")
def grid():
    return grid2d(15, 15, seed=61)


class TestGrass:
    def test_budget_and_connectivity(self, grid):
        result = grass_sparsify(grid, edge_fraction=0.10, rounds=3, seed=0)
        budget = int(round(0.10 * grid.n))
        assert len(result.recovered_edge_ids) <= budget + 3
        count, _ = connected_components(result.sparsifier)
        assert count == 1

    def test_criticality_formula(self, grid):
        """Criticality == w_pq (h^T e_pq)^2 summed over probes."""
        shift = regularization_shift(grid)
        L_G = regularized_laplacian(grid, shift, fmt="csr")
        tree_ids = mewst(grid)
        L_T = regularized_laplacian(grid.subgraph(tree_ids), shift)
        factor = cholesky(L_T)
        off = np.setdiff1d(np.arange(grid.edge_count), tree_ids)
        crit = perturbation_criticality(
            grid, L_G, factor, off, power_steps=2, probe_vectors=2, rng=7
        )
        assert (crit >= 0).all()
        assert crit.shape == (len(off),)

    def test_criticality_detects_bottleneck(self):
        """Two clusters joined by off-tree edges: those edges dominate."""
        from repro.graph import Graph

        edges = []
        # Two 4-cliques.
        for base in (0, 4):
            for i in range(4):
                for j in range(i + 1, 4):
                    edges.append((base + i, base + j, 10.0))
        # One weak tree bridge + one strong off-tree bridge.
        edges.append((3, 4, 0.01))
        edges.append((0, 7, 1.0))
        g = Graph.from_edges(8, edges)
        shift = regularization_shift(g)
        L_G = regularized_laplacian(g, shift, fmt="csr")
        tree_ids = mewst(g)
        # Ensure the strong bridge is off-tree for this test to make sense.
        bridge = g.edge_lookup()[(0, 7)]
        if bridge in tree_ids:
            pytest.skip("bridge landed in tree")
        L_T = regularized_laplacian(g.subgraph(tree_ids), shift)
        factor = cholesky(L_T)
        off = np.setdiff1d(np.arange(g.edge_count), tree_ids)
        crit = perturbation_criticality(
            g, L_G, factor, off, power_steps=3, probe_vectors=4, rng=1
        )
        assert off[np.argmax(crit)] == bridge

    def test_config_validation(self):
        with pytest.raises(GraphError):
            GrassConfig(rounds=0).validate()
        with pytest.raises(GraphError):
            GrassConfig(power_steps=0).validate()
        with pytest.raises(GraphError):
            GrassConfig(probe_vectors=0).validate()
        with pytest.raises(GraphError, match=r"choose from \['bfs', "
                           r"'max_weight', 'mewst'\]"):
            GrassConfig(tree_method="x").validate()

    @pytest.mark.parametrize("tree_method", ["mewst", "max_weight", "bfs"])
    def test_tree_methods_are_the_proposed_ones(self, grid, tree_method):
        """GRASS starts from the tree the proposed method would build."""
        ours = grass_sparsify(grid, edge_fraction=0.05, rounds=1,
                              tree_method=tree_method)
        proposed = trace_reduction_sparsify(grid, edge_fraction=0.05,
                                            rounds=1, tree_method=tree_method)
        np.testing.assert_array_equal(ours.tree_edge_ids,
                                      proposed.tree_edge_ids)

    def test_deterministic(self, grid):
        a = grass_sparsify(grid, edge_fraction=0.05, rounds=2, seed=9)
        b = grass_sparsify(grid, edge_fraction=0.05, rounds=2, seed=9)
        np.testing.assert_array_equal(a.edge_mask, b.edge_mask)

    def test_conflicting_args(self, grid):
        with pytest.raises(GraphError):
            grass_sparsify(grid, GrassConfig(), rounds=2)


class TestFegrass:
    def test_budget_and_connectivity(self, grid):
        result = fegrass_sparsify(grid, edge_fraction=0.10)
        count, _ = connected_components(result.sparsifier)
        assert count == 1
        budget = int(round(0.10 * grid.n))
        assert len(result.recovered_edge_ids) <= budget

    def test_single_pass(self, grid):
        result = fegrass_sparsify(grid, edge_fraction=0.10)
        assert len(result.rounds_log) == 1
        assert result.rounds_log[0]["phase"] == "fegrass"

    def test_highest_stretch_edge_recovered_without_similarity(self, grid):
        from repro.tree import RootedForest, batch_tree_resistances

        result = fegrass_sparsify(grid, edge_fraction=0.10, use_similarity=False)
        forest = RootedForest(grid, result.tree_edge_ids)
        mask = forest.tree_edge_mask()
        off = np.flatnonzero(~mask)
        resistances, _ = batch_tree_resistances(
            forest, grid.u[off], grid.v[off]
        )
        stretch = grid.w[off] * resistances
        top = off[np.argmax(stretch)]
        assert top in result.recovered_edge_ids


class TestOrdering:
    """The paper's quality ordering: proposed < GRASS on kappa.

    The locality approximations (beta-ball truncation, SPAI pruning)
    need a graph large enough that 5-hop balls are genuinely local;
    below a few thousand nodes GRASS's global power iteration is nearly
    exact and the ordering can flip, so this test uses a 60x60 grid
    (the benchmark suite checks the paper-scale cases).
    """

    def test_proposed_beats_grass_on_grid(self):
        from repro.core import trace_reduction_sparsify

        grid = grid2d(60, 60, seed=7)
        proposed = trace_reduction_sparsify(
            grid, edge_fraction=0.10, rounds=5, seed=1
        )
        grass = grass_sparsify(grid, edge_fraction=0.10, rounds=5, seed=1)
        q_prop = evaluate_sparsifier(grid, proposed.sparsifier)
        q_grass = evaluate_sparsifier(grid, grass.sparsifier)
        # Same edge budget.
        assert q_prop.sparsifier_edges == q_grass.sparsifier_edges
        assert q_prop.kappa <= q_grass.kappa
