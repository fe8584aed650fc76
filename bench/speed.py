"""Machine-speed sampling, to take the shared machine's drift out of timings.

On a shared machine one CPU's speed drifts by tens of percent within seconds
and minutes, and a run's timings drift with it. While a `SpeedSampler` is
open, a SIGALRM timer interrupts the process every PERIOD_S and times a fixed
micro-kernel that does not touch sublap: interpreted arithmetic and a small
batched symmetric eigenproblem, the two kinds of work the package does. A
latency is then reported as

    (wall time - time spent in the sampler) * REFERENCE_S / median kernel time

over the samples taken within WINDOW_S around it: the time it would have taken
at the speed where the kernel takes REFERENCE_S. REFERENCE_S is about the
kernel's median on the machine recorded in bench/BASELINE.json; it only sets
the unit. Raw wall times are kept next to the scaled ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# Bound at import, before a traced run wraps numpy.linalg with spans.
_EIGVALSH = np.linalg.eigvalsh


class SpeedSampler:
    PERIOD_S = 0.02
    WINDOW_S = 1.0
    REFERENCE_S = 2.5e-4

    def __init__(self):
        m = np.random.default_rng(0).standard_normal((60, 5, 5))
        self._small = m + m.transpose(0, 2, 1)
        self.at: list[float] = []
        self.took: list[float] = []
        self.spent = 0.0  # total time inside the handler

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(1500):
            acc += i * 0.5
        _EIGVALSH(self._small)
        took = time.perf_counter() - t0
        self.at.append(t0)
        self.took.append(took)
        self.spent += took

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self, start: float, end: float, own: float) -> float:
        """Latency of the interval [start, end], less `own` seconds spent in
        the sampler, at the reference speed."""
        half = max(self.WINDOW_S, end - start) / 2.0
        mid = (start + end) / 2.0
        lo = bisect.bisect_left(self.at, mid - half)
        hi = bisect.bisect_right(self.at, mid + half)
        window = self.took[lo:hi] or self.took
        return (end - start - own) * self.REFERENCE_S / statistics.median(window)
