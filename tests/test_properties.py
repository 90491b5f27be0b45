"""Cross-module property-based tests (hypothesis).

These encode the paper's mathematical invariants on randomly generated
graphs — the properties that must hold for *any* input, not just the
fixtures: Laplacian PSD-ness, Rayleigh-quotient domination of subgraphs,
trace/kappa ordering, SPAI nonnegativity, tree-resistance metric
axioms, PCG's Galerkin property, and a valid sparsifier from every
registered method under every option.
"""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import trace_ratio_exact
from repro import sparsify
from repro.api import get_method, list_methods
from repro.exceptions import GraphError
from repro.graph import (
    Graph,
    connected_components,
    grid2d,
    laplacian,
    regularization_shift,
    regularized_laplacian,
)
from repro.linalg import cholesky, pcg, sparse_approximate_inverse
from repro.tree import RootedForest, batch_tree_resistances, mewst


def _random_connected_graph(seed, max_nodes=24, min_nodes=4):
    """Random spanning tree + random extra edges (always connected)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(min_nodes, max_nodes))
    edges = {}
    for node in range(1, n):
        parent = int(rng.integers(0, node))
        edges[(parent, node)] = float(rng.uniform(0.2, 5.0))
    extras = rng.integers(0, 2 * n)
    for _ in range(int(extras)):
        a, b = rng.integers(0, n, size=2)
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        if key not in edges:
            edges[key] = float(rng.uniform(0.2, 5.0))
    triples = [(a, b, w) for (a, b), w in edges.items()]
    return Graph.from_edges(n, triples)


@given(seed=st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_laplacian_is_psd_with_zero_row_sums(seed):
    g = _random_connected_graph(seed)
    L = laplacian(g).toarray()
    np.testing.assert_allclose(L.sum(axis=1), 0, atol=1e-10)
    eigenvalues = np.linalg.eigvalsh(L)
    assert eigenvalues.min() > -1e-9


@given(seed=st.integers(0, 500))
@settings(max_examples=25, deadline=None)
def test_subgraph_rayleigh_domination(seed):
    """x^T L_S x <= x^T L_G x for any subgraph S and any x."""
    g = _random_connected_graph(seed)
    rng = np.random.default_rng(seed + 1)
    mask = rng.random(g.edge_count) < 0.6
    sub = g.subgraph(mask)
    L_G = laplacian(g).toarray()
    L_S = laplacian(sub).toarray()
    for _ in range(5):
        x = rng.standard_normal(g.n)
        assert x @ L_S @ x <= x @ L_G @ x + 1e-9


@given(seed=st.integers(0, 500))
@settings(max_examples=20, deadline=None)
def test_generalized_spectrum_bounded_below_by_one(seed):
    """With the shared shift, all generalized eigenvalues are >= 1."""
    g = _random_connected_graph(seed)
    tree_ids = mewst(g)
    shift = regularization_shift(g, 1e-4)
    L_G = regularized_laplacian(g, shift).toarray()
    L_T = regularized_laplacian(g.subgraph(tree_ids), shift).toarray()
    eigenvalues = sla.eigh(L_G, L_T, eigvals_only=True)
    assert eigenvalues.min() >= 1.0 - 1e-7
    # Eq. (5): kappa = lambda_max <= trace.
    assert eigenvalues.max() <= np.trace(np.linalg.solve(L_T, L_G)) + 1e-7


@given(seed=st.integers(0, 500))
@settings(max_examples=20, deadline=None)
def test_tree_resistance_is_a_metric(seed):
    g = _random_connected_graph(seed)
    forest = RootedForest(g, mewst(g))
    rng = np.random.default_rng(seed + 2)
    nodes = rng.integers(0, g.n, size=(10, 3))
    for a, b, c in nodes:
        r_ab, _ = batch_tree_resistances(forest, [a], [b])
        r_bc, _ = batch_tree_resistances(forest, [b], [c])
        r_ac, _ = batch_tree_resistances(forest, [a], [c])
        # Symmetry.
        r_ba, _ = batch_tree_resistances(forest, [b], [a])
        assert r_ab[0] == pytest.approx(r_ba[0])
        # Identity.
        if a == b:
            assert r_ab[0] == pytest.approx(0.0, abs=1e-12)
        # Triangle inequality (exact equality when paths nest).
        assert r_ac[0] <= r_ab[0] + r_bc[0] + 1e-9


@given(seed=st.integers(0, 500), delta=st.sampled_from([0.0, 0.1, 0.3]))
@settings(max_examples=20, deadline=None)
def test_spai_invariants_on_random_graphs(seed, delta):
    g = _random_connected_graph(seed)
    shift = regularization_shift(g, 1e-3)
    factor = cholesky(regularized_laplacian(g, shift))
    Z = sparse_approximate_inverse(factor.L, delta=delta)
    coo = Z.tocoo()
    assert (coo.row >= coo.col).all()          # lower triangular
    assert (coo.data >= -1e-13).all()          # Proposition 1
    assert np.diff(Z.indptr).min() >= 1        # no empty columns


@given(seed=st.integers(0, 500))
@settings(max_examples=20, deadline=None)
def test_pcg_monotone_residual_with_exact_preconditioner(seed):
    g = _random_connected_graph(seed)
    shift = regularization_shift(g, 1e-3)
    A = regularized_laplacian(g, shift)
    factor = cholesky(A)
    rng = np.random.default_rng(seed + 3)
    b = rng.standard_normal(g.n)
    result = pcg(A, b, M_solve=factor.solve, rtol=1e-10, record_history=True)
    assert result.converged
    assert result.iterations <= 3


@given(seed=st.integers(0, 500))
@settings(max_examples=15, deadline=None)
def test_trace_of_self_is_n(seed):
    g = _random_connected_graph(seed)
    shift = regularization_shift(g, 1e-5)
    L = regularized_laplacian(g, shift)
    assert trace_ratio_exact(L, L) == pytest.approx(g.n, rel=1e-8)


#: Each option's grid: both ends of every range and every choice.  All
#: values pass ``validate()``; an option missing here fails the tests
#: below with a ``KeyError``.
OPTION_GRID = {
    "edge_fraction": [0.0, 0.1, 5.0],
    "seed": [0, 7],
    "shards": [1, 4],
    "boundary_policy": ["keep", "sample"],
    "workers": [0, 1, 2],
    "rounds": [1, 6],
    "beta": [1, 8],
    "delta": [0.0, 0.99],
    "gamma": [0, 4],
    "tree_method": ["mewst", "max_weight", "bfs"],
    "use_similarity": [True, False],
    "reg_rel": [1e-12, 1e-2],
    "power_steps": [1, 4],
    "probe_vectors": [1, 4],
    "sketch_size": [None, 1, 64],
}


def _graph_with_components(rng, sizes):
    """Random connected components of *sizes* (a size-1 component is an
    isolated node), their node ids shuffled together."""
    n = sum(sizes)
    perm = rng.permutation(n)
    triples, offset = [], 0
    for size in sizes:
        part = _random_connected_graph(int(rng.integers(0, 1 << 30)),
                                       max_nodes=size + 1, min_nodes=size)
        triples += [(int(perm[offset + a]), int(perm[offset + b]), float(w))
                    for a, b, w in zip(part.u, part.v, part.w)]
        offset += size
    return Graph.from_edges(n, triples)


def _valid_run(graph, method, options):
    """Run *method*; assert the output is a valid sparsifier of *graph*.

    Valid means: a subset of G's edges, spanning and connecting each
    component of G, and within the budget.  The budget is
    ``round(edge_fraction * n)`` edges on top of the spanning forests,
    per shard in a sharded run, plus the cut edges the boundary policy
    keeps.  Every grid value passes ``validate()``, so the one typed
    error allowed is for more shards than nodes.
    """
    if options.get("shards", 1) > graph.n:
        with pytest.raises(GraphError, match="cannot cut"):
            sparsify(graph, method, **options)
        return
    result = sparsify(graph, method, **options)
    sparsifier = result.sparsifier
    assert sparsifier.n == graph.n
    assert sparsifier.edge_key_set() <= graph.edge_key_set()
    graph_parts, _ = connected_components(graph)
    assert connected_components(sparsifier)[0] == graph_parts
    kept = set(np.flatnonzero(result.edge_mask).tolist())
    assert set(result.tree_edge_ids.tolist()) <= kept
    assert set(result.recovered_edge_ids.tolist()) <= kept
    fraction = result.config.edge_fraction
    if result.sharding is None:
        budget = round(fraction * graph.n)
        assert len(result.recovered_edge_ids) <= budget
        assert result.edge_count <= graph.n - graph_parts + budget
    else:
        per_shard = result.sharding["per_shard"]
        cut = result.sharding["cut"]
        assert len(result.recovered_edge_ids) <= sum(
            round(fraction * shard["nodes"]) for shard in per_shard)
        assert cut["kept_edges"] <= cut["edges"]
        assert result.edge_count <= (len(result.tree_edge_ids)
                                     + len(result.recovered_edge_ids)
                                     + cut["kept_edges"])


@pytest.mark.parametrize("method", list_methods())
def test_every_option_value_gives_a_valid_sparsifier(method):
    """Each option at each grid value, the others at their defaults, on
    three components and two isolated nodes."""
    graph = _graph_with_components(np.random.default_rng(11),
                                   [9, 6, 3, 1, 1])
    _valid_run(graph, method, {})
    for name in get_method(method).option_names():
        for value in OPTION_GRID[name]:
            _valid_run(graph, method, {name: value})


@given(seed=st.integers(0, 300), data=st.data())
@settings(max_examples=40, deadline=None)
def test_sparsifier_always_valid_on_random_graphs(seed, data):
    """Every registered method, with every option drawn from its grid,
    returns a valid sparsifier of a graph of one to three components
    plus up to two isolated nodes."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, 14, size=rng.integers(1, 4)).tolist()
    graph = _graph_with_components(rng, sizes + [1] * rng.integers(0, 3))
    method = data.draw(st.sampled_from(list_methods()), label="method")
    options = {name: data.draw(st.sampled_from(OPTION_GRID[name]),
                               label=name)
               for name in get_method(method).option_names()}
    _valid_run(graph, method, options)
