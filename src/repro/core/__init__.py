"""The paper's core contribution: trace-reduction spectral sparsification.

Public surface:

* criticality metrics: :func:`exact_trace_reduction`,
  :func:`tree_truncated_trace_reduction` and the batched rankers of
  :mod:`repro.core.ranking` (Eq. 20 lives in :class:`ApproxRanker`);
* the full Algorithm 2 driver :func:`trace_reduction_sparsify`;
* baselines :func:`grass_sparsify` (GRASS [8]) and
  :func:`fegrass_sparsify` (feGRASS [13]);
* quality metrics: :func:`evaluate_sparsifier`, :func:`pcg_performance`.
"""

from repro.core.base import ArtifactStore, BaseSparsifierConfig
from repro.core.resistance import effective_resistance, effective_resistances
from repro.core.trace import (
    trace_ratio_exact,
    trace_ratio_hutchinson,
    trace_ratio,
)
from repro.core.trace_reduction import (
    exact_trace_reduction,
    exact_trace_reduction_batch,
)
from repro.core.tree_phase import tree_truncated_trace_reduction
from repro.core.ranking import (
    ApproxRanker,
    BallCache,
    EdgeRanker,
    ExactRanker,
    TreePhaseRanker,
)
from repro.core.parallel import (
    DEFAULT_CHUNK_SIZE,
    chunk_spans,
    parallel_map,
    resolve_workers,
    score_edges,
)
from repro.core.similarity import SimilarityMarker
from repro.core.sparsifier import (
    SparsifierConfig,
    SparsifierResult,
    trace_reduction_sparsify,
)
from repro.core.sharding import (
    ShardPlan,
    induced_subgraph,
    partition_shards,
    select_boundary_edges,
    sharded_sparsify,
)
from repro.core.grass import GrassConfig, grass_sparsify, perturbation_criticality
from repro.core.fegrass import FegrassConfig, fegrass_sparsify
from repro.core.er_sampling import (
    ErSamplingConfig,
    approximate_effective_resistances,
    er_sample_sparsify,
)
from repro.core.trace_tracker import TraceTracker
from repro.core.metrics import QualityReport, evaluate_sparsifier, pcg_performance

__all__ = [
    "ArtifactStore",
    "BaseSparsifierConfig",
    "effective_resistance",
    "effective_resistances",
    "trace_ratio_exact",
    "trace_ratio_hutchinson",
    "trace_ratio",
    "exact_trace_reduction",
    "exact_trace_reduction_batch",
    "tree_truncated_trace_reduction",
    "EdgeRanker",
    "BallCache",
    "TreePhaseRanker",
    "ExactRanker",
    "ApproxRanker",
    "DEFAULT_CHUNK_SIZE",
    "chunk_spans",
    "parallel_map",
    "resolve_workers",
    "score_edges",
    "SimilarityMarker",
    "SparsifierConfig",
    "SparsifierResult",
    "trace_reduction_sparsify",
    "ShardPlan",
    "induced_subgraph",
    "partition_shards",
    "select_boundary_edges",
    "sharded_sparsify",
    "GrassConfig",
    "grass_sparsify",
    "perturbation_criticality",
    "FegrassConfig",
    "fegrass_sparsify",
    "ErSamplingConfig",
    "approximate_effective_resistances",
    "er_sample_sparsify",
    "TraceTracker",
    "QualityReport",
    "evaluate_sparsifier",
    "pcg_performance",
]
