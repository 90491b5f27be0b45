"""repro — graph spectral sparsification via approximate trace reduction.

A from-scratch Python reproduction of Liu & Yu, *Pursuing More Effective
Graph Spectral Sparsifiers via Approximate Trace Reduction* (DAC 2022),
including the GRASS/feGRASS baselines, a sparse Cholesky + SPAI + PCG
stack, a power-grid transient simulator and a spectral-partitioning
pipeline.

Quick start::

    from repro import grid2d, sparsify, evaluate_sparsifier

    graph = grid2d(100, 100, seed=0)
    result = sparsify(graph, method="proposed", edge_fraction=0.10, rounds=5)
    report = evaluate_sparsifier(graph, result.sparsifier)
    print(report.kappa, report.pcg_iterations)

``sparsify`` dispatches through the method registry (``"proposed"``,
``"grass"``, ``"fegrass"``, ``"er_sampling"``); sweeping many settings
over one graph goes through :class:`repro.SparsifierSession`, which
reuses the expensive shared artifacts and emits machine-readable
:class:`repro.RunRecord` objects.
"""

from repro.graph import (
    Graph,
    laplacian,
    regularization_shift,
    regularized_laplacian,
    grid2d,
    grid3d,
    triangular_mesh,
    random_geometric_graph,
    circuit_grid,
    barabasi_albert,
    watts_strogatz,
    stochastic_kronecker,
    configuration_model,
    bipartite_recommender,
    GENERATOR_REGISTRY,
    list_families,
    make_family_graph,
    make_case,
    read_graph_mtx,
    read_graph_mtx_streaming,
    read_mtx_shard,
    read_mtx_boundary,
    write_graph_mtx,
)
from repro.tree import (
    mewst,
    maximum_spanning_forest,
    bfs_spanning_forest,
    RootedForest,
    batch_tree_resistances,
)
from repro.linalg import (
    cholesky,
    CholeskyFactor,
    sparse_approximate_inverse,
    pcg,
    PCGResult,
    relative_condition_number,
)
from repro.core import (
    ArtifactStore,
    BaseSparsifierConfig,
    SparsifierConfig,
    SparsifierResult,
    ShardPlan,
    partition_shards,
    ApproxRanker,
    GrassConfig,
    FegrassConfig,
    ErSamplingConfig,
    tree_truncated_trace_reduction,
    evaluate_sparsifier,
    pcg_performance,
    QualityReport,
)
from repro.api import (
    MethodSpec,
    register_sparsifier,
    get_method,
    list_methods,
    sparsifier_methods,
    RunRecord,
    SparsifierSession,
    sparsify,
)
from repro.incremental import (
    DeltaRecord,
    EdgeBatch,
    EvolvingSparsifier,
    sparsify_delta,
)

__version__ = "0.7.0"

__all__ = [
    "Graph",
    "laplacian",
    "regularization_shift",
    "regularized_laplacian",
    "grid2d",
    "grid3d",
    "triangular_mesh",
    "random_geometric_graph",
    "circuit_grid",
    "barabasi_albert",
    "watts_strogatz",
    "stochastic_kronecker",
    "configuration_model",
    "bipartite_recommender",
    "GENERATOR_REGISTRY",
    "list_families",
    "make_family_graph",
    "make_case",
    "read_graph_mtx",
    "read_graph_mtx_streaming",
    "read_mtx_shard",
    "read_mtx_boundary",
    "write_graph_mtx",
    "mewst",
    "maximum_spanning_forest",
    "bfs_spanning_forest",
    "RootedForest",
    "batch_tree_resistances",
    "cholesky",
    "CholeskyFactor",
    "sparse_approximate_inverse",
    "pcg",
    "PCGResult",
    "relative_condition_number",
    "ArtifactStore",
    "BaseSparsifierConfig",
    "SparsifierConfig",
    "SparsifierResult",
    "ShardPlan",
    "partition_shards",
    "ApproxRanker",
    "GrassConfig",
    "FegrassConfig",
    "ErSamplingConfig",
    "tree_truncated_trace_reduction",
    "evaluate_sparsifier",
    "pcg_performance",
    "QualityReport",
    "MethodSpec",
    "register_sparsifier",
    "get_method",
    "list_methods",
    "sparsifier_methods",
    "RunRecord",
    "SparsifierSession",
    "sparsify",
    "DeltaRecord",
    "EdgeBatch",
    "EvolvingSparsifier",
    "sparsify_delta",
    "__version__",
]
