"""The speed of the host while a measurement runs.

The benchmark runs on shared hosts whose throughput drifts by a quarter or
more, within seconds and over minutes, and it moves CPU time as much as wall
time.  A fixed reference kernel timed at the same moments and on the same
core as the program slows down with it, so a time multiplied by the
kernel's speed reads about the same whatever the host is doing.

    speed = NOMINAL_S / (CPU seconds of one reference sample)

A speed of 1 means one sample takes NOMINAL_S.  The kernel mixes what the
program spends its time on: fraction-free integer elimination, Fraction
arithmetic and small dict updates.  It does not import hyperproof, so no
change to the program changes it.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# CPU seconds of one sample at speed 1: about what one sample takes, between
# proofs, on the 2-core x86_64 Xeon host the benchmark was first tuned on.
NOMINAL_S = 0.0037
# Seconds of wall time between two samples while a Sampler runs.
INTERVAL_S = 0.05

_MATRIX = [[(i * 37 + j * 11) % 23 - 11 + (i == j) * 5 for j in range(7)]
           for i in range(7)]
_FRACTIONS = [Fraction(i * 7 + 1, i + 2) for i in range(12)]


def _kernel():
    m = [row[:] for row in _MATRIX]
    prev = 1
    for k in range(len(m) - 1):
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k] or 1
    total = Fraction(0)
    for a in _FRACTIONS:
        for b in _FRACTIONS:
            total += a * b
    counts = {}
    for i in range(300):
        counts[i % 37] = counts.get(i % 37, 0) + i
    return total, counts


def sample():
    """Speed of the host right now, from one timed run of the kernel.  The
    garbage collector is held off, so collecting the program's garbage is
    not charged to the kernel; thread CPU time leaves out time the thread
    waited for a core."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        for _ in range(4):
            _kernel()
        return NOMINAL_S / max(time.thread_time() - t0, 1e-9)
    finally:
        if enabled:
            gc.enable()


def warm_up(count=3):
    """Run the kernel until the interpreter has specialized its code."""
    for _ in range(count):
        sample()


class Sampler:
    """Samples the speed every INTERVAL_S seconds of wall time, from a
    SIGALRM handler, while the code in its with-block runs in the same
    thread.  The samples cost about 7% of the time they interleave with."""

    def __init__(self):
        self.speeds = []
        self._previous = None

    def _handler(self, signum, frame):
        self.speeds.append(sample())

    def __enter__(self):
        warm_up()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.speeds:     # the block was shorter than one interval
            self.speeds.append(sample())
        return False

    def speed(self):
        """Mean speed over the samples."""
        return sum(self.speeds) / len(self.speeds)
