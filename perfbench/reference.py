"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared virtual machine the same work can take 0.6 s in one minute and
0.9 s in the next, and the speed changes within a second too: the speed of
the CPU the process gets changes under it.  Over 70 s, one `verify_r10`
call timed again and again spread by 50% of its median (distance between
the quartiles), while its time divided by the time of this kernel, taken
just before and just after it, spread by 8%.

So the benchmark times this kernel before the first item of a pass, after
every item and, from a SIGALRM handler, every INTERVAL_S during an item
(`SpeedSampler`).  The handler's time is taken out of the item's time, and
the item's time is scaled by REF_S times the mean of 1/sample over the
samples around and inside it.  The result is in reference seconds: seconds
on a machine that runs this kernel in REF_S seconds.  The measured times
are kept in the report next to the scaled ones.  Sampling inside an item
matters for items of a second or more: for a 2 s boundary-dicing item the
spread of the scaled time went from 0.09-0.13 with the two outer samples
to 0.03-0.08 with samples every 50 ms.

The kernel is exact rational Gaussian elimination on a fixed 12x12 matrix,
the kind of work conelab's LP and elimination code does, written here and
not taken from conelab, so that no change to conelab can change it.  It must
not change either: a different kernel gives different reference seconds.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# Median time of one reference_sample() on a 2-CPU Intel Xeon
# ("Intel(R) Xeon(R) Processor"), Python 3.11.7.
REF_S = 0.004
# wall time between samples inside an item; each costs about REF_S
INTERVAL_S = 0.05

_N = 12
_MATRIX = [[Fraction((7 * i + 3 * j) % 11 + 1, (i + 2 * j) % 5 + 1) + 5 * (i == j)
            for j in range(_N)] for i in range(_N)]


def _eliminate() -> Fraction:
    m = [row[:] for row in _MATRIX]
    for c in range(_N):
        for r in range(c + 1, _N):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return m[-1][-1]


def reference_sample() -> float:
    """Seconds one run of the reference kernel takes now."""
    t = time.perf_counter()
    _eliminate()
    return time.perf_counter() - t


class SpeedSampler:
    """Times the reference kernel every INTERVAL_S of wall time while armed.

    Use as a context manager around a pass, and `arm()`/`disarm()` around
    each item.  `samples` holds (start, handler seconds, kernel seconds)
    for every sample taken since the last `arm()`.
    """

    def __init__(self):
        self.samples = []
        self._old = None

    def _handler(self, signum, frame):
        t = time.perf_counter()
        ref = reference_sample()
        self.samples.append((t, time.perf_counter() - t, ref))

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        return self

    def __exit__(self, *exc):
        self.disarm()
        signal.signal(signal.SIGALRM, self._old)

    def arm(self, interval: float = INTERVAL_S) -> None:
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def inside(self, t0: float, t1: float) -> list:
        """(handler seconds, kernel seconds) of the samples started in [t0, t1)."""
        return [(h, ref) for t, h, ref in self.samples if t0 <= t < t1]
