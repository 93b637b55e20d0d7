"""Machine-speed probe for converting wall time to reference seconds.

On a shared host the speed one process gets drifts, by up to a third
between runs a minute apart, as other tenants load the same cores and the
shared cache.  The drift is not time taken away from the process: CPU time
moves with wall time, so `time.process_time` does not remove it.  The probe
samples a fixed pure-Python loop from a SIGALRM handler every `interval`
seconds of wall time while a block runs, in the same thread as the measured
work, so the samples see the same drift.  A wall time measured in the block,
scaled by REFERENCE_PROBE_S / (mean sample), is its length in reference
seconds: the time it would have taken had the probe run at its reference
speed throughout.

The probe reads no data of the program's and keeps none of its own between
samples.  An untimed warm-up refills the caches the loop needs, so the
memory the program touched before a sample does not move the sample: right
after a sweep of 128 MB a sample is within about 2 % of one taken with warm
caches (`selfcheck.py` asserts this end to end through `run.py
--inject-mb`).
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

PROBE_ITERATIONS = 2000
WARMUP_ITERATIONS = 200

# sets the scale of reference seconds only: about the mean sample during
# a pass on the 2-core 2.1 GHz Xeon host the benchmark was written on, so
# there reference seconds read close to wall seconds
REFERENCE_PROBE_S = 1.5e-4


def _spin(n: int) -> int:
    s = 0
    for i in range(n):
        s += i * i
    return s


class SpeedProbe:
    """`sampling` collects probe samples over a block."""

    def __init__(self):
        self.samples = []

    def _sample(self, *_):
        _spin(WARMUP_ITERATIONS)
        t = time.perf_counter()
        _spin(PROBE_ITERATIONS)
        self.samples.append(time.perf_counter() - t)

    @contextmanager
    def sampling(self, interval: float):
        """Sample every `interval` seconds, and once on entry and exit."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sample()

    def reference_seconds(self, seconds: float) -> float:
        return seconds * REFERENCE_PROBE_S / statistics.mean(self.samples)
