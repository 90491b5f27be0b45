"""Small wall-clock timing helpers used by benchmarks and reports."""

from __future__ import annotations

import time

__all__ = ["Timer"]


class Timer:
    """Context-manager wall-clock timer.

    Examples
    --------
    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self.start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Timer":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed = time.perf_counter() - self.start
