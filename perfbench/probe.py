"""Host-speed probe: scales measured times to a fixed reference speed.

The CPU speed of a shared host drifts by tens of percent, over minutes and
within one second, and no median within a run removes that.  While a
``SpeedProbe`` runs, a SIGALRM handler times a fixed reference loop every
``INTERVAL_S``, in the middle of whatever the process is doing.  An interval
of measured work is then scaled by ``REF_NOMINAL_S`` over the mean sample
taken in it; the time the handler itself took inside the interval is
subtracted first.  A reference second is a wall second on a host that runs
the loop in ``REF_NOMINAL_S``.

The loop runs no package code, so no change to the package changes it.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right
from contextlib import contextmanager

import numpy as np

# Mean reference_loop() time on the host of the seed baseline (2 CPUs of a
# shared Intel Xeon virtual machine, Python 3.11.7, numpy 2.4.6) in its
# faster spells, so that reference seconds read about as wall seconds there.
REF_NOMINAL_S = 0.0009
INTERVAL_S = 0.05
# A shorter interval is widened to this, centred, to find samples.
MIN_WINDOW_S = 0.25

_C = np.array([[4.0, 1.0, 0.5, 0.2, 0.1], [1.0, 3.0, 0.4, 0.3, 0.2],
               [0.5, 0.4, 2.0, 0.1, 0.3], [0.2, 0.3, 0.1, 2.5, 0.4],
               [0.1, 0.2, 0.3, 0.4, 3.5]])


def reference_loop() -> float:
    """Seconds for a fixed mix of interpreted arithmetic and small numpy
    calls, the two kinds of work the package does."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(2000):
        acc += math.sqrt(i * 0.5 + 1.0) * (i % 7)
    for i in range(40):
        acc += float(np.linalg.det(_C + i * 1e-3 * _C))
        acc += float(np.linalg.eigvalsh(_C[:3, :3])[0])
    if not math.isfinite(acc):
        raise ArithmeticError("reference loop")
    return time.perf_counter() - t0


def reference_seconds(repeats: int = 15) -> float:
    """Median of ``repeats`` reference loops, for work the probe cannot
    interrupt, such as a child process."""
    return statistics.median(reference_loop() for _ in range(repeats))


class SpeedProbe:
    def __init__(self):
        self.start = array("d")
        self.ref = array("d")
        self.spent = array("d")

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        ref = reference_loop()
        self.start.append(t0)
        self.ref.append(ref)
        self.spent.append(time.perf_counter() - t0)

    @contextmanager
    def running(self):
        """Sample on entry, every INTERVAL_S in the block, and on exit."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self._sample(None, None)

    def scale(self, t0: float, t1: float) -> tuple:
        """(work seconds, mean reference sample, reference seconds) of the
        interval [t0, t1] measured while the probe ran."""
        lo, hi = bisect_left(self.start, t0), bisect_right(self.start, t1)
        work = (t1 - t0) - sum(self.spent[lo:hi])
        if t1 - t0 < MIN_WINDOW_S:
            mid = 0.5 * (t0 + t1)
            lo = bisect_left(self.start, mid - 0.5 * MIN_WINDOW_S)
            hi = bisect_right(self.start, mid + 0.5 * MIN_WINDOW_S)
        if lo == hi:
            # no sample in the window: take the nearest one
            lo = min(lo, len(self.start) - 1)
            if lo > 0 and self.start[lo] - t1 > t0 - self.start[lo - 1]:
                lo -= 1
            hi = lo + 1
        ref = statistics.fmean(self.ref[lo:hi])
        return work, ref, work * REF_NOMINAL_S / ref
