"""Incremental sparsification for evolving graphs.

The delta counterpart of the one-shot pipeline: keep a sparsifier
*alive* under streams of edge insertions and deletions instead of
rebuilding it per mutation.  :class:`EvolvingSparsifier` maintains the
spanning forest and kept-edge ranking locally per batch, as masks over
the graph's sorted edge arrays (with a drift monitor falling back to
the full pipeline),
:class:`DeltaRecord` is the lossless per-batch log, and
:func:`sparsify_delta` is the one-call facade mirrored as
``repro.sparsify_delta``.
"""

from repro.incremental.delta import DeltaRecord, EdgeBatch, normalize_batch
from repro.incremental.evolving import EvolvingSparsifier, sparsify_delta

__all__ = [
    "DeltaRecord",
    "EdgeBatch",
    "EvolvingSparsifier",
    "normalize_batch",
    "sparsify_delta",
]
