"""The pace of the machine, sampled while a pass runs.

The benchmark runs on a shared host whose speed changes by a quarter or
more within seconds, and for every kind of code alike.  So a ``Pacer`` times
a fixed reference work every ``INTERVAL_S`` seconds of a pass, from a
SIGALRM handler that runs in the benchmark's own thread between the
program's bytecodes.  Its time is taken out of the request it interrupted.
The pace of a sample is the mean, over the four parts of the reference
work, of their time over their nominal time ``NOMINAL_S``; a latency is then
also reported at nominal speed:

    adjusted = latency / (pace during the request)

A request that holds at least ``NEAREST`` samples is slowed by the time
average of the pace over it, estimated by the mean of its samples with the
highest and lowest tenth left out.  A shorter one takes the median of the
``NEAREST`` samples closest to it.  A slower program still reads slower,
because the reference work runs no code of the program; a slower machine
mostly does not.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

# Time of each part of the reference work on a quiet 2-core Linux VM
# (Python 3.11, numpy 2.4, mpmath 1.3).
NOMINAL_S = (2.0e-4, 2.9e-4, 2.0e-4, 1.9e-4)
INTERVAL_S = 0.02   # time between two samples
NEAREST = 8         # fewest samples that rate one request
_MP = _MP_HIGH = None


def reference_work() -> float:
    """Fixed work like the program's, in four parts: complex arithmetic in
    Python, numpy calls on scalars and small arrays, and mpmath arithmetic
    at double and at high precision.  Returns the pace: the mean over the
    parts of their time over nominal."""
    global _MP, _MP_HIGH
    import numpy as np

    if _MP is None:
        import mpmath

        # Contexts of their own: their precision is not the one the program sets.
        _MP, _MP_HIGH = mpmath.MPContext(), mpmath.MPContext()
        _MP_HIGH.prec = 2000
    t0 = time.perf_counter()
    z = 0.3 + 0.4j
    for _ in range(1000):
        z = (0.5 * z + 0.1) / (1.0 - 0.2 * z)
    t1 = time.perf_counter()
    a = np.array([z, 0.5, -0.25j])
    for _ in range(50):
        bool(np.any(np.abs(a * np.complex128(z)) > 1.0))
        float(np.angle(a[0]))
    t2 = time.perf_counter()
    x = _MP.mpc(z.real, z.imag)
    for _ in range(8):
        x = (0.5 * x + 0.1) / (1 - 0.2 * x)
    t3 = time.perf_counter()
    y = _MP_HIGH.mpc(z.real, z.imag)
    for _ in range(3):
        y = (0.5 * y + 0.1) / (1 - 0.2 * y)
    t4 = time.perf_counter()
    parts = (t1 - t0, t2 - t1, t3 - t2, t4 - t3)
    return sum(t / n for t, n in zip(parts, NOMINAL_S)) / len(parts)


def reference_paces(count: int) -> list:
    """Paces of ``count`` back-to-back runs of the reference work."""
    return [reference_work() for _ in range(count)]


class Pacer:
    """Samples the pace while a pass runs and rescales its latencies."""

    def __init__(self):
        self.times: list = []     # midpoint of each sample, in order
        self.paces: list = []     # its pace
        self.spent = 0.0          # time taken by sampling so far
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:            # a slow sample outlasted the interval
            return
        self._busy = True
        t0 = time.perf_counter()
        pace = reference_work()
        t1 = time.perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.paces.append(pace)
        self.spent += t1 - t0
        self._busy = False

    @contextlib.contextmanager
    def running(self):
        reference_work()          # lazy imports and first-call costs
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def pace(self, start: float, end: float) -> float:
        """Trimmed mean pace of the samples taken in [start, end], or median
        pace of the NEAREST samples around it."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo >= NEAREST:
            inside = sorted(self.paces[lo:hi])
            cut = len(inside) // 10
            return statistics.fmean(inside[cut:len(inside) - cut])
        mid = bisect.bisect_left(self.times, 0.5 * (start + end))
        lo = max(0, min(mid - NEAREST // 2, len(self.times) - NEAREST))
        return statistics.median(self.paces[lo:lo + NEAREST])

    def adjust(self, latency: float, start: float, end: float) -> float:
        return latency / self.pace(start, end)
