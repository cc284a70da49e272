"""Machine-speed sampling, to report request times at a reference speed.

On a shared virtual machine the speed of one virtual CPU changes by a
quarter or more within seconds, as other tenants come and go; over a
20-second run the mean still moves by about 10%.  To measure the program
rather than the machine, `SpeedSampler` times a fixed kernel (pure
standard library: fractions, tuples, dicts, small objects) every
PERIOD_S from a SIGALRM handler in the measuring thread itself (two
runs back to back, timed together).  A
request's *normalised* time is its wall time, minus the time the handler
ran inside it, scaled by REFERENCE_KERNEL_S over the mean kernel time of
the samples around it.  The kernel never calls the program, so a faster
program still reads faster.
"""

from __future__ import annotations

import bisect
import gc
import signal
from array import array
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.05
# About the time of two kernel runs at the fast speed of the machine the
# benchmark was written on (a two-vCPU Firecracker VM, Python 3.11.7).
# Only ratios to it matter.
REFERENCE_KERNEL_S = 0.0004
# Samples this close to a request set its speed: about ten of them, since
# a single kernel time is itself noisy.
NEIGHBOURHOOD_S = 0.25


class _Slot:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def kernel() -> int:
    """Fixed pure-Python work shaped like the program's: fractions, tuples, dicts, small objects."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 40):
        term = Fraction(i * 7 + 3, 24 * i + 1)
        acc = (acc + term) % 1
        table[(i, i % 7)] = _Slot(str(acc), (acc.numerator, acc.denominator))
    return sum(len(slot.key) for slot in table.values())


def kernel_time(repeats: int = 15) -> float:
    """Median time of two kernel runs now, as SpeedSampler takes it."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        kernel()
        kernel()
        times.append(perf_counter() - start)
    return sorted(times)[repeats // 2]


class SpeedSampler:
    """Context manager that samples kernel times while it is active."""

    def __init__(self) -> None:
        self.starts = array("d")  # handler entry and exit
        self.ends = array("d")
        self.kernel_s = array("d")  # two kernel runs, back to back
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            # Twice: the first run pays for the caches the interrupted code
            # left cold, as requests do; the second runs warm, as loops do.
            kernel()
            kernel()
            self.kernel_s.append(perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
        self.starts.append(start)
        self.ends.append(perf_counter())

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalise(self, start: float, end: float) -> float:
        """Wall time of [start, end] without the sampler, at reference speed."""
        lo = bisect.bisect_left(self.starts, start - NEIGHBOURHOOD_S)
        hi = bisect.bisect_right(self.starts, end + NEIGHBOURHOOD_S)
        busy = 0.0
        for i in range(lo, hi):
            busy += max(0.0, min(self.ends[i], end) - max(self.starts[i], start))
        scale = REFERENCE_KERNEL_S * (hi - lo) / sum(self.kernel_s[lo:hi]) if hi > lo else 1.0
        return (end - start - busy) * scale

    def median_kernel_s(self) -> float:
        times = sorted(self.kernel_s)
        return times[len(times) // 2] if times else float("nan")
