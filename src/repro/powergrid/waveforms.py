r"""Periodic pulse current waveforms.

The paper drives transient analysis with "periodic pulse currents ...
generated at each current source" and derives the iterative solver's
variable time steps from the waveform *breakpoints* (corners of the
piecewise-linear pulses).  :class:`PulsePattern` models a standard
trapezoidal pulse train:

::

      amp ___________
         /|          |\
        / |          | \
    ___/  |          |  \__________ ... (repeats with `period`)
      delay rise  width fall
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import SimulationError

__all__ = ["PulsePattern", "breakpoints_union"]


@dataclass(frozen=True)
class PulsePattern:
    """Periodic trapezoidal pulse (times in seconds, amplitude in amps)."""

    amplitude: float
    delay: float
    rise: float
    width: float
    fall: float
    period: float

    def __post_init__(self):
        if min(self.rise, self.fall) <= 0:
            raise SimulationError("rise/fall must be positive")
        if self.width < 0 or self.delay < 0:
            raise SimulationError("width/delay must be nonnegative")
        pulse = self.rise + self.width + self.fall
        # Relative tolerance: summing the segments in a different order
        # (e.g. period = (rise + width + fall) * dt vs the sum of the
        # scaled segments) differs by an ulp, and a zero-off-time pulse
        # (period == pulse) is valid.
        if self.period < pulse * (1.0 - 1e-9):
            raise SimulationError("period shorter than one pulse")

    def value(self, t: float) -> float:
        """Waveform value at time *t* (vectorized over numpy arrays)."""
        result = _pulse_values(
            np.asarray(t, dtype=np.float64), self.amplitude, self.delay,
            self.rise, self.width, self.fall, self.period,
        )
        if result.ndim == 0:
            return float(result)
        return result

    def breakpoints(self, t_end: float) -> np.ndarray:
        """All pulse corner times in ``(0, t_end]``."""
        corners = np.array(
            [
                0.0,
                self.rise,
                self.rise + self.width,
                self.rise + self.width + self.fall,
            ]
        )
        points = []
        start = self.delay
        while start < t_end:
            for corner in corners:
                t = start + corner
                if 0.0 < t <= t_end:
                    points.append(t)
            start += self.period
        return np.asarray(sorted(set(points)))


def _pulse_values(t, amplitude, delay, rise, width, fall, period):
    """The pulse-train formula, elementwise over broadcast arguments.

    The one implementation behind :meth:`PulsePattern.value` (scalar
    fields, scalar or array *t*) and the per-step load evaluation of a
    netlist (one array per field, scalar *t*).  Each element takes the
    same float operations in the same order either way, so both give
    bit-identical values.
    """
    local = np.mod(t - delay, period)
    local = np.where(t < delay, -1.0, local)  # before first pulse
    top_end = rise + width
    down_end = top_end + fall
    result = np.where(
        (local >= 0) & (local < rise), amplitude * local / rise, 0.0
    )
    result = np.where((local >= rise) & (local < top_end), amplitude, result)
    return np.where(
        (local >= top_end) & (local < down_end),
        amplitude * (down_end - local) / fall,
        result,
    )


def breakpoints_union(patterns, t_end: float) -> np.ndarray:
    """Sorted union of the breakpoints of many waveforms in ``(0, t_end]``."""
    merged: set = {float(t_end)}
    for pattern in patterns:
        merged.update(pattern.breakpoints(t_end).tolist())
    return np.asarray(sorted(merged))
