"""A fixed pure-Python job that measures how fast this machine runs Python now.

On a shared host, other load can slow every pass by up to 1.8 times, in
phases from under a second to minutes, and it slows this job by about the
same factor.  ``loop.py`` divides each pass's time by the job's time, so the
gated pass cost does not move with the host's load.  The job is 40 slices;
:class:`SpeedSampler` also times one slice every 50 ms while a pass runs, so
a pass of several seconds is compared with the machine's speed during it,
not only at its ends.  The job does the kind of work hjgen's hot loops do
(closure calls, float math, small objects, a heap) and does not use hjgen,
so a change to the program leaves it alone.
"""

from __future__ import annotations

import heapq
import math
import signal
import time

SLICES = 40  # slices in one reference job
SAMPLE_INTERVAL_S = 0.05


class _Panel:
    __slots__ = ("a", "b", "fa", "fm", "fb", "value", "err")

    def __init__(self, a, b, fa, fm, fb):
        self.a, self.b, self.fa, self.fm, self.fb = a, b, fa, fm, fb
        self.value = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
        self.err = abs(self.value) * 1e-3


def _split_panels(f, panels: int) -> float:
    root = _Panel(0.0, 1.0, f(0.0), f(0.5), f(1.0))
    heap = [(-root.err, 0, root)]
    seq = 1
    while seq < panels:
        _, _, p = heapq.heappop(heap)
        m = 0.5 * (p.a + p.b)
        for lo, hi, flo, fhi in ((p.a, m, p.fa, p.fm), (m, p.b, p.fm, p.fb)):
            child = _Panel(lo, hi, flo, f(0.5 * (lo + hi)), fhi)
            heapq.heappush(heap, (-child.err, seq, child))
            seq += 1
    return sum(p.value for _, _, p in heap)


def _slice(k: int) -> None:
    _split_panels(lambda x: math.sqrt(abs(1.0 - x * x) + 1e-9) + k, 400)


def reference_seconds() -> float:
    """Wall time of one fixed job: about 17 ms on an unloaded 2-core Xeon VM."""
    start = time.perf_counter()
    for k in range(SLICES):
        _slice(k)
    return time.perf_counter() - start


class SpeedSampler:
    """Times one slice of the job every 50 ms of wall time, via SIGALRM.

    Use as a context manager around a pass in the main thread.  ``samples``
    holds each slice's seconds; the pass's own time is its wall time minus
    their sum.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _slice(len(self.samples))
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
