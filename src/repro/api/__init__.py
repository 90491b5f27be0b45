"""Unified sparsifier API: registry, facade, sessions and run records.

This package is the introspectable front door the rest of the system
(CLI, power-grid pipeline, partitioning comparison, benchmarks) plugs
into:

* :func:`repro.api.sparsify` — the one entry point for every
  registered method: it validates the options against the method's
  config dataclass and times the run;
* :func:`repro.api.register_sparsifier` / :func:`get_method` /
  :func:`list_methods` — the method registry
  (:class:`MethodSpec` = runner + config class + incremental flag);
* :class:`repro.api.SparsifierSession` — per-graph artifact reuse for
  fraction/method sweeps and repeated-request serving;
* :class:`repro.api.RunRecord` — lossless JSON run records.

Everything here re-exports at the top level: ``repro.sparsify`` is
:func:`repro.api.sparsify`.
"""

from repro.api.registry import (
    MethodSpec,
    OptionSpec,
    get_method,
    list_methods,
    methods_supporting,
    register_sparsifier,
    sparsifier_methods,
)
from repro.api import methods as _methods  # noqa: F401  (registrations)
from repro.api.records import RunRecord, capture_environment
from repro.api.session import SparsifierSession, sparsify

__all__ = [
    "MethodSpec",
    "OptionSpec",
    "register_sparsifier",
    "get_method",
    "list_methods",
    "sparsifier_methods",
    "methods_supporting",
    "RunRecord",
    "capture_environment",
    "SparsifierSession",
    "sparsify",
]
