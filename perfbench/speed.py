"""Machine-speed probe for timings on a shared, noisy CPU.

On a machine whose cores are shared with other tenants, the same Python
code runs up to ~2x slower while a neighbour is busy, in episodes that
last from under a second to half a minute.  Per-run medians of raw wall
time then move with the neighbours, not with the code.

The probe samples the machine's speed while the benchmark measures: an
interval timer interrupts the process every `INTERVAL_S` seconds and times
a fixed pure-Python kernel of exact-rational arithmetic (the library's own
kind of work, but no library code).  A phase that took `raw` seconds,
less the probe's own samples inside it, is reported as
`raw * mean(REFERENCE_KERNEL_S / k)` over the kernel times `k` sampled
during and just around the phase: seconds at the reference speed.  The samples are
evenly spaced in wall time, so the mean sampled speed (not the median kernel
time) is the share of reference-speed work done per wall second, however
the neighbour's busy episodes fall within the phase.  A change to the
library moves the reported time; a busy neighbour moves the speed as well
and largely cancels out.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# The speed changes within a tenth of a second, so a 50 ms phase needs a
# few samples of its own; the probe's own time is taken out of the phase.
INTERVAL_S = 0.01
# A phase is normalized by the speed sampled from WINDOW_S before it to
# WINDOW_S after it.
WINDOW_S = 0.05
# Kernel time on an uncontended 2 GHz Xeon vCPU under Python 3.11.
REFERENCE_KERNEL_S = 0.00032


def kernel() -> Fraction:
    acc = Fraction(0)
    for _ in range(2):
        for i in range(1, 33):
            acc = (acc + Fraction(i, i + 3)) * Fraction(2, 3) if acc < 50 else Fraction(1, i)
    return acc


class SpeedProbe:
    """Samples the kernel time on SIGALRM while started."""

    def __init__(self):
        self.starts: list[float] = []
        self.kernel_s: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.kernel_s.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._sample(None, None)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, start: float | None = None, end: float | None = None) -> float:
        """Inverse of the mean sampled speed over [start, end], widened by
        WINDOW_S on each side, relative to the reference."""
        lo = 0 if start is None else bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = len(self.starts) if end is None else bisect.bisect_right(self.starts, end + WINDOW_S)
        samples = self.kernel_s[lo:hi] or self.kernel_s
        return statistics.harmonic_mean(samples) / REFERENCE_KERNEL_S

    def normalized(self, start: float, end: float) -> float:
        """Seconds at the reference speed that [start, end] took, less the
        probe's own samples within it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        own = sum(self.kernel_s[lo:hi])
        return (end - start - own) / self.slowdown(start, end)
