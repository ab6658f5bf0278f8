"""Host-speed probe: report host times at one reference CPU speed.

On a shared host the CPU runs the same code at different speeds as the
neighbours' load comes and goes, in stretches of seconds to minutes and by
up to 2x, so a campaign's wall time measures the neighbours as much as the
program.  The probe samples that speed while the program runs: a timer
signal every ``PERIOD_S`` runs a fixed kernel (small numpy matrix-vector
products, the kind of call the workloads spend their time in) in the
measured process, twice, and records how long the second run took: the
first run brings the kernel back into the caches the program evicted, so
the reading depends on the host and not on the program's working set.
A span's *slowdown* is the mean reading over the span divided by
``REFERENCE_S``; a host time divided by the slowdown is the time at that
reference speed.

The probe's own time is recorded too (``busy_s``), so it is taken out of
the span it interrupted; it costs under 1 % of the span.  Interval timers
are not inherited across fork, so worker processes run unprobed.
"""

from __future__ import annotations

import atexit
import signal
import statistics
import time
from typing import List, Tuple

import numpy as np

PERIOD_S = 0.02
# About the fastest readings inside running campaigns on the defining host
# (2-vCPU Xeon at 2.1 GHz, Python 3.11, numpy 2.4); only a scale, so that
# corrected figures read close to that host's unloaded ones.
REFERENCE_S = 35e-6

_MATRIX = np.full((12, 12), 0.5)
_VECTOR = np.ones(12)


def kernel() -> None:
    for _ in range(24):
        _MATRIX @ _VECTOR + _VECTOR


class SpeedProbe:
    """Samples ``kernel`` on a timer signal while started."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (busy, reading)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        warm = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append((end - start, end - warm))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        # Disarm before the interpreter restores the default action, which
        # would end a failing process by the signal instead of its error.
        atexit.register(self.stop)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clear(self) -> None:
        self.samples = []

    def take(self) -> Tuple[float, float]:
        """``(busy_s, slowdown)`` of the samples since the last take."""
        samples, self.samples = self.samples, []
        if not samples:
            raise RuntimeError("the span was too short to sample host speed")
        return (sum(busy for busy, _ in samples),
                statistics.fmean(reading for _, reading in samples)
                / REFERENCE_S)
