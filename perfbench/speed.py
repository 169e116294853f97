"""Machine-speed reference for scaling measured times to a nominal speed.

The reference machine is a VM on a shared host whose CPU speed swings by up
to 1.7x in phases of tens of seconds to minutes, as other tenants load it.
The same timed call then takes 0.19 s in one run and 0.33 s in the next, and
no run length averages the phases out.  So the benchmark times a small fixed
kernel (Python arithmetic and 4-vector numpy ops, like the workloads' inner
loops) every SAMPLE_INTERVAL_S seconds *during* the timed calls, from a
SIGALRM handler, and scales each call by how much slower than nominal the
kernel ran meanwhile:

    scaled = (wall - kernel time) * NOMINAL_KERNEL_S * mean(1 / kernel times)

On a 2-vCPU VM this brought the run-to-run spread (interquartile range over
median of 10-second windows) of theory_checks from 28% to 2%, and of
frac_smooth calls from 14% to 4%.  The raw wall times are reported next to
the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

SAMPLE_INTERVAL_S = 0.1
NOMINAL_KERNEL_S = 4e-4  # the kernel's time at the nominal speed
_MATRIX = np.eye(4) * 0.5


def kernel() -> float:
    """Run the fixed reference kernel once; return its wall seconds."""
    t0 = time.perf_counter()
    x = np.arange(4.0)
    total = 0
    for i in range(60):
        y = _MATRIX @ x + 1.0
        x = y / (1.0 + float(y @ y))
        total += sum(i * j for j in range(12))
    return time.perf_counter() - t0


def slowdown(kernel_times) -> float:
    """Mean of NOMINAL_KERNEL_S / t: the time-weighted slowdown factor."""
    return statistics.fmean(NOMINAL_KERNEL_S / t for t in kernel_times)


class Sampler:
    """Times the kernel on a SIGALRM timer while active (main thread only)."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self.samples.append((start, kernel()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, start: float, end: float) -> tuple[float, float]:
        """(raw, scaled) seconds of the interval [start, end], kernel time
        excluded.  An interval too short to hold a sample is scaled by a
        kernel run right after it."""
        inside = [k for t, k in self.samples if start <= t <= end]
        raw = end - start - sum(inside)
        return raw, raw * slowdown(inside or [kernel()])
