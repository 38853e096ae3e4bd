"""Timings corrected for how fast the shared machine runs at the moment.

On a 2-core virtual machine whose cores are shared with other tenants,
those tenants slow identical work by up to 1.6 times, in spells that last
from a second to minutes, so identical work timed in two runs a few
minutes apart can differ by 30 %.  A fixed reference loop slows by about
the same factor: timed alternately with scalar additions, the ratio of
the two moved 5 % where each alone moved 20 %.

``SpeedClock.timed`` runs the loop (a "tick") right before a timed call,
unless one ran less than ``TICK_S`` ago, and again every ``TICK_S``
seconds during the call from a ``SIGALRM`` handler in the benchmark's
only thread.  Ticks run nowhere else, so they see the interpreter-bound
work they correct and not the cache state numpy leaves behind.
``corrected`` removes the ticks' own time from an interval and scales it
by ``NOMINAL_TICK_S`` over the median tick near the interval: the result
is the interval's length on a machine where the loop takes
``NOMINAL_TICK_S``.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

TICK_S = 0.1
NOMINAL_TICK_S = 0.003  # about the loop's time on an uncontended 2.1 GHz Xeon core
WINDOW_S = 0.5  # ticks this close to an interval also count for it


def reference_loop(n: int = 20000) -> int:
    """Interpreter work of the program's kind: int arithmetic, tuples, a dict."""
    table = {}
    total = 0
    for i in range(n):
        total += (i * 7919) % 1013
        table[i & 255] = (total, i)
    return total


class SpeedClock:
    def __init__(self, ticking: bool = True):
        self.ticking = ticking  # a traced run keeps ticks out of its spans
        self.times: list[float] = []  # end of each tick
        self.lengths: list[float] = []  # duration of each tick
        self.spent = 0.0  # total time inside ticks

    def start(self) -> None:
        """Install the tick handler; ``arm`` and ``disarm`` switch the timer.

        The loop runs once untimed first: its first run in a process is slow.
        """
        if self.ticking:
            reference_loop()
        signal.signal(signal.SIGALRM, self.tick)

    def stop(self) -> None:
        self.disarm()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def arm(self) -> None:
        if self.ticking:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def tick(self, *_) -> None:
        if not self.ticking:
            return
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.lengths.append(t1 - t0)
        self.spent += t1 - t0

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self.spent

    def raw_since(self, mark: tuple[float, float]) -> tuple[float, float, float]:
        """(start, end, wall seconds since mark not spent in ticks)."""
        t0, spent0 = mark
        t1 = time.perf_counter()
        return t0, t1, (t1 - t0) - (self.spent - spent0)

    def timed(self, fn, *args):
        """Call fn with ticks before and during it; returns (output, interval)."""
        if not self.times or time.perf_counter() - self.times[-1] > TICK_S:
            self.tick()
        mark = self.mark()
        self.arm()
        try:
            out = fn(*args)
        finally:
            self.disarm()
        return out, self.raw_since(mark)

    def corrected(self, t0: float, t1: float, seconds: float, near=None) -> float:
        """Seconds at the nominal speed; ``near`` overrides the ticks used."""
        if near is None:
            lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
            hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
            near = self.lengths[lo:hi] or self.lengths[-3:]
        if not near:
            return seconds
        return seconds * NOMINAL_TICK_S / statistics.median(near)

    def summary(self) -> dict:
        return {"ticks": len(self.lengths), "nominal_tick_ms": NOMINAL_TICK_S * 1e3,
                "median_tick_ms": statistics.median(self.lengths) * 1e3 if self.lengths else None}
