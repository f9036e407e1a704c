"""Machine-speed probe that calibrates the benchmark's times.

The host this benchmark was built on shares its cores with other tenants:
a fixed pure-Python loop there takes 19 to 29 ms depending on the second,
in stretches lasting from one to tens of seconds, so a 20-second run can
sit entirely in a slow stretch and raw times of identical runs spread by
20-45%.  The timed loop therefore runs a short fixed probe every
`PROBE_EVERY_S`, and every operation's time is divided by the speed
factor measured around it: the probe's median time there over
`PROBE_REF_S`.  Calibrated times read as "milliseconds on a host where
the probe takes PROBE_REF_S"; a change in crystal-forge moves them, the
host's load does not.  The probe is this file's own code (Fraction
arithmetic and tuple-keyed dicts, like the program's inner loops), so no
change to crystal-forge can change it.

Probes run between operations.  Workloads whose operations last seconds
take them from a SIGALRM timer instead, so those operations are sampled
while they run; the probes' own time is taken out of the operation's.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from fractions import Fraction
from statistics import median
from time import perf_counter

PROBE_REF_S = 0.004  # the probe's time on an unloaded core of the reference host
PROBE_EVERY_S = 0.1
WINDOW_S = 0.25  # probes this close to an operation describe its speed


def _probe_work() -> int:
    table = {}
    x = Fraction(1, 3)
    for i in range(1, 800):
        y = x * Fraction(i, 7) + Fraction(1, i + 1)
        table[(i % 97, y.denominator % 11)] = y
    return len(table)


class SpeedTrace:
    """Probe times over a run, and the speed factor at any interval of it."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = perf_counter()
            _probe_work()
            self.starts.append(t0)
            self.ends.append(perf_counter())

    @contextmanager
    def sampling(self):
        """Take a probe every PROBE_EVERY_S from a timer signal while the block runs."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def inside(self, start: float, end: float) -> float:
        """Seconds of probing that ran within [start, end]."""
        lo = bisect_left(self.starts, start)
        hi = bisect_right(self.ends, end)
        return sum(self.ends[k] - self.starts[k] for k in range(lo, hi))

    def factor(self, start: float, end: float) -> float:
        """Median probe time near [start, end] over the reference (1 = reference speed)."""
        starts = self.starts
        lo = min(bisect_left(starts, start - WINDOW_S), max(0, bisect_left(starts, start) - 1))
        hi = max(bisect_right(starts, end + WINDOW_S), min(len(starts), bisect_right(starts, end) + 1))
        near = [self.ends[k] - starts[k] for k in range(lo, hi)] or self.durations()
        return median(near) / PROBE_REF_S

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def overall(self) -> float:
        return median(self.durations()) / PROBE_REF_S if self.starts else 1.0
