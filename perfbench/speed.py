"""How fast the CPU runs right now, sampled beside a pass.

The host's speed drifts by tens of percent within seconds (shared cores,
frequency changes), which is far more than the changes the benchmark must
resolve.  A thread times a small fixed pure-Python kernel every
``INTERVAL_S`` while a pass runs; the kernel holds the interpreter lock for
about a millisecond, shorter than the switch interval, so each sample times
the CPU, not the lock.  ``normalized`` rescales a wall time to the speed at
which the kernel takes ``NOMINAL_S``.  It divides by the mean kernel time,
not the median: evenly spaced samples make the mean the time average of
1/speed, which is what stretches the pass.  On a shared 2-CPU machine this
cut the quartile spread of repeated identical work from about 0.3 to about
0.05; the probe costs the pass about 3 %.
"""

from __future__ import annotations

import statistics
import threading
import time
from fractions import Fraction

INTERVAL_S = 0.05
NOMINAL_S = 1e-3


def kernel() -> float:
    """Seconds for a fixed mix of integer, Fraction, string and dict work."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(1, 300):
        acc += Fraction(i, i + 7)
        key = format(i * 2654435761 % 4093, "b")
        seen[key] = seen.get(key[::-1], 0) + len(key)
    return time.perf_counter() - t0


def sample(n: int = 20) -> float:
    """Mean of ``n`` kernel times taken now, in the calling thread."""
    return statistics.fmean(kernel() for _ in range(n))


def normalized(seconds: float, kernel_s: float) -> float:
    """``seconds`` at the speed at which the kernel takes ``NOMINAL_S``."""
    return seconds * NOMINAL_S / kernel_s


class SpeedProbe:
    """Context manager sampling ``kernel`` from a background thread."""

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        self.samples.append(kernel())
        while not self._stop.wait(INTERVAL_S):
            self.samples.append(kernel())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def mean(self) -> float:
        return statistics.fmean(self.samples)

    def normalized(self, wall_s: float) -> float:
        return normalized(wall_s, self.mean())
