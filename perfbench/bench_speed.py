"""Host-speed probe: a fixed pure-Python kernel, timed while the program runs.

Other tenants of a shared host slow every instruction of this process, by up
to 2x, in phases that last from seconds to minutes; CPU time moves with wall
time, so neither can tell a slow host from a slow program.  The probe times a
fixed kernel that does the kind of work the program does (tuple keys in a
dict, a keyed sort) every PERIOD_S seconds from an interval timer, and
between cells.  A cell's latency, with the probe's own time taken out, is
rescaled by REFERENCE_S / (median kernel time around the cell): the result
is the cell's wall time at the speed at which the kernel takes REFERENCE_S.
Both sides of a comparison are rescaled by the same constant, so the
program's own speed changes pass through unchanged.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

# median kernel time on the reference host (2-core x86_64 VM, CPython
# 3.11.7) in a quiet stretch; it only sets the scale of the rescaled times
REFERENCE_S = 0.0035
PERIOD_S = 0.05


def kernel() -> int:
    """The fixed unit of work; returns a checksum so nothing is skipped."""
    counts = {}
    for i in range(6000):
        k = (i * 7919) % 4099
        key = (k, k & 7)
        counts[key] = counts.get(key, 0) + 1
    ordered = sorted(counts, key=lambda x: x[0] * 31 + x[1])
    return ordered[0][0] + len(ordered)


class SpeedProbe:
    """Kernel samples (start, end, seconds) in time order, and rescaling."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel_s: list[float] = []
        self._busy = False

    def sample(self, *_) -> None:
        """Time the kernel once; also the interval timer's signal handler."""
        if self._busy:  # a signal that lands inside a sample is dropped
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.kernel_s.append(end - start)
        self._busy = False

    @contextlib.contextmanager
    def running(self):
        """Sample before, every PERIOD_S during, and after the block."""
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def _window(self, t0, t1) -> tuple[int, int]:
        """Indices of the samples that ran inside [t0, t1]."""
        return bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.ends, t1)

    def own_time(self, t0, t1) -> float:
        """Seconds of [t0, t1] not spent in the probe's samples."""
        lo, hi = self._window(t0, t1)
        return (t1 - t0) - sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def factor(self, t0, t1) -> float:
        """REFERENCE_S over the median kernel time in and next to [t0, t1]."""
        lo, hi = self._window(t0, t1)
        around = self.kernel_s[max(lo - 1, 0):min(hi + 1, len(self.kernel_s))]
        if not around:
            raise ValueError("no probe sample near the interval")
        return REFERENCE_S / statistics.median(around)

    def rescaled(self, t0, t1) -> float:
        """The interval's own time at the reference speed."""
        return self.own_time(t0, t1) * self.factor(t0, t1)
