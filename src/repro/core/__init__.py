"""The paper's core contribution: trace-reduction spectral sparsification.

Public surface:

* the method configs and results: :class:`SparsifierConfig` (the
  paper's Algorithm 2), :class:`GrassConfig` (GRASS [8]),
  :class:`FegrassConfig` (feGRASS [13]) and :class:`ErSamplingConfig`,
  run through :func:`repro.sparsify`;
* criticality metrics: :func:`tree_truncated_trace_reduction`
  (Eqs. 13-15) and :class:`ApproxRanker` (Eq. 20);
* quality metrics: :func:`evaluate_sparsifier`, :func:`pcg_performance`.
"""

from repro.core.base import ArtifactStore, BaseSparsifierConfig
from repro.core.tree_phase import tree_truncated_trace_reduction
from repro.core.ranking import ApproxRanker
from repro.core.similarity import SimilarityMarker
from repro.core.sparsifier import SparsifierConfig, SparsifierResult
from repro.core.sharding import (
    ShardPlan,
    induced_subgraph,
    partition_shards,
    select_boundary_edges,
)
from repro.core.grass import GrassConfig, perturbation_criticality
from repro.core.fegrass import FegrassConfig
from repro.core.er_sampling import (
    ErSamplingConfig,
    approximate_effective_resistances,
)
from repro.core.metrics import QualityReport, evaluate_sparsifier, pcg_performance

__all__ = [
    "ArtifactStore",
    "BaseSparsifierConfig",
    "tree_truncated_trace_reduction",
    "ApproxRanker",
    "SimilarityMarker",
    "SparsifierConfig",
    "SparsifierResult",
    "ShardPlan",
    "induced_subgraph",
    "partition_shards",
    "select_boundary_edges",
    "GrassConfig",
    "perturbation_criticality",
    "FegrassConfig",
    "ErSamplingConfig",
    "approximate_effective_resistances",
    "QualityReport",
    "evaluate_sparsifier",
    "pcg_performance",
]
