"""Registrations binding the core sparsifiers into the method registry.

Importing this module (done by ``repro.api``) publishes the paper's
Algorithm 2 and the three baselines as :class:`~repro.api.registry.MethodSpec`
entries.  Each runner is its method module's ``_run(graph, config,
artifacts)``: :func:`repro.sparsify` builds and validates the config and
times the run, so the runners do neither.
"""

from __future__ import annotations

from repro.api.registry import register_sparsifier
from repro.core import er_sampling, fegrass, grass, sparsifier

__all__ = []

register_sparsifier(
    "proposed",
    config_cls=sparsifier.SparsifierConfig,
    supports_incremental=True,
    description="Algorithm 2: approximate trace reduction (the paper)",
)(sparsifier._run)

register_sparsifier(
    "grass",
    config_cls=grass.GrassConfig,
    description="GRASS baseline: spectral-perturbation criticality",
)(grass._run)

register_sparsifier(
    "fegrass",
    config_cls=fegrass.FegrassConfig,
    description="feGRASS baseline: single-pass tree-stretch ranking",
)(fegrass._run)

register_sparsifier(
    "er_sampling",
    config_cls=er_sampling.ErSamplingConfig,
    supports_incremental=True,
    description="Spielman-Srivastava effective-resistance sampling",
)(er_sampling._run)
