"""CPU-speed probe: times of benchmark work in units of a fixed reference.

On a shared host the speed of a CPU drifts by tens of percent over seconds
to minutes, and any timed work slows with it.  ``SpeedProbe`` times a fixed
interpreter loop every PERIOD_S from a ``SIGALRM`` handler while the work
runs.  The work's wall time, less the probes' own time, divided by the mean
reference time over the same interval cancels most of that drift.

This module imports nothing from ``ghs``, so a fresh interpreter can load it
before timing ``import ghs``.
"""

import math
import signal
import statistics
import time

PERIOD_S = 0.02
# Rescales reference units to seconds on a CPU on which the loop below takes
# 0.3 ms, which is about its time on the 2-core host the benchmark was built on.
NOMINAL_REFERENCE_S = 3e-4


def time_reference():
    """Duration of fixed interpreter work: float math in a Python loop."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(1, 1000):
        s += math.log(i) * 0.5 + math.exp(-i * 1e-4)
    return time.perf_counter() - t0


class SpeedProbe:
    """Context manager that samples ``time_reference`` every PERIOD_S."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(time_reference())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def in_reference_units(self, wall):
        """``wall`` seconds, measured inside this context, in reference units."""
        samples = self.samples or [time_reference()]
        return (wall - self.spent) / statistics.fmean(samples)
