"""Shared utilities: validation, timing, RNG plumbing and table reporting."""

from repro.utils.rng import as_rng
from repro.utils.timers import Timer
from repro.utils.reporting import Table, format_seconds, format_bytes
from repro.utils.validation import check_square_sparse

__all__ = [
    "as_rng",
    "Timer",
    "Table",
    "format_seconds",
    "format_bytes",
    "check_square_sparse",
]
