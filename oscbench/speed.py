"""Host speed sampling, so that times read the same on a busy or quiet host.

On the virtual machine this benchmark was built on, the same fixed work took
up to twice as long from one second to the next, even in CPU time.  While a
driver runs the program, a SIGPROF timer fires every ``SAMPLE_EVERY_S`` of
CPU time and times a fixed mpmath kernel that never touches oscmean.  A
request's CPU time, less the time spent in the kernel, is then scaled by
``REFERENCE_KERNEL_S`` over the median kernel time sampled around it: it
reads as CPU seconds on a host where the kernel takes exactly
``REFERENCE_KERNEL_S``.  The raw CPU time is kept beside it.

Every CPU time is read with ``time.thread_time``: while a process-wide CPU
timer is armed, Linux reads the process CPU clock (``time.process_time``)
only at scheduler-tick resolution.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Tuple

from mpmath import mp

#: CPU seconds the kernel takes at the reference speed (about what it took
#: on a quiet 2-vCPU Xeon host).
REFERENCE_KERNEL_S = 1e-3
#: CPU seconds between two samples.
SAMPLE_EVERY_S = 0.05
#: Samples this many CPU seconds either side of a request describe its speed.
WINDOW_S = 0.25


def kernel():
    """Fixed work shaped like log-polynomial evaluation at 143 bits."""
    with mp.workprec(143):
        t = mp.mpf(13) / 7
        log_t = mp.log(t)
        total = mp.mpf(0)
        for m in range(-3, 2):
            for j in range(8):
                total += mp.mpf(j + 1) / (m + 5) * t ** m * log_t ** j
    return total


class Speedometer:
    """Samples the kernel's CPU time while it is running (one per process)."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (CPU time, kernel seconds)
        self.overhead = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.thread_time()
        kernel()
        took = time.thread_time() - start
        self.samples.append((start, took))
        self.overhead += took

    def start(self) -> None:
        start = time.thread_time()
        kernel()  # warm mpmath's caches at this precision
        self.overhead += time.thread_time() - start
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_KERNEL_S over the median kernel time near [start, end]."""
        if not self.samples:
            self._tick(None, None)
        near = [k for t, k in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            middle = (start + end) / 2
            near = [min(self.samples, key=lambda s: abs(s[0] - middle))[1]]
        return REFERENCE_KERNEL_S / statistics.median(near)
