"""Host-speed calibration for timings taken on a shared machine.

On a shared host the speed of one core swings by about 2x within seconds
and drifts for minutes: a fixed matmul loop ran between 6,700 and 11,600
calls/s in 5-second means, with process CPU time equal to wall time. Raw
wall times then spread across runs by more than any useful regression bound.

So the measuring process runs a fixed probe -- benchmark code, which no
change to the program can touch -- at op boundaries every PROBE_EVERY_NS.
The probe has the shape of the program's hot path (small numpy row-times-
column updates driven from Python). Its duration tracks the host's current
speed. Each stretch of time between probes is divided by the local factor,
the rolling median of WINDOW probes over PROBE_NOMINAL_NS, so a timing
reads as it would on this host at nominal speed. Probe time itself is
excluded from every timing (OpClock.now skips it).
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

PROBE_EVERY_NS = 50_000_000
PROBE_NOMINAL_NS = 150_000     # the probe's duration on an uncontended core
WINDOW = 5

_A = np.linspace(-1.0, 1.0, 576).reshape(24, 24)
_B = _A.T.copy()


def probe() -> int:
    """Duration in ns of a fixed 24x24 row-times-column loop, run twice."""
    t0 = time.perf_counter_ns()
    for _ in range(2):
        out = np.zeros((24, 24))
        for k in range(24):
            out += _A[:, k:k + 1] * _B[k:k + 1, :]
    return time.perf_counter_ns() - t0


def burst(n: int = 3) -> list[int]:
    """n back-to-back probe durations."""
    return [probe() for _ in range(n)]


class HostSpeed:
    """Local slowdown factors from (time, duration) probe records."""

    def __init__(self, probes: list[tuple[int, int]]):
        self.times = [t for t, _ in probes]
        durations = [d for _, d in probes]
        half = WINDOW // 2
        self.factors = [statistics.median(durations[max(0, i - half): i + half + 1])
                        / PROBE_NOMINAL_NS for i in range(len(durations))]

    def duration(self, t0: int, t1: int) -> float:
        """Normalized length of [t0, t1]: each stretch is divided by the
        factor of the first probe at or after its end."""
        if not self.factors:
            return float(t1 - t0)
        last = len(self.factors) - 1
        i = bisect.bisect_right(self.times, t0)
        total, start = 0.0, t0
        while i <= last and self.times[i] < t1:
            total += (self.times[i] - start) / self.factors[i]
            start = self.times[i]
            i += 1
        return total + (t1 - start) / self.factors[min(i, last)]
