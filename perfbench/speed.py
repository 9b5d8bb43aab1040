"""Machine-speed calibration for the end-to-end timings.

On a shared virtual machine the speed of the same CPU-bound Python code
moves by 30-70% for seconds to minutes at a time, which is larger than any
bound a regression gate could use.  While a `Speed` is running, a timer
signal interrupts the process every PERIOD_S seconds and times a fixed
pure-Python loop (dict, set, tuple, integer and sort work, the kinds of
operation the library spends its time on), also in the middle of a long
library call.  A measured interval is then reported as

    (its duration - the loops run inside it)
        * REFERENCE_LOOP_NS / (mean time of the loops in and around it)

which reads as the time it would have taken on a machine where the loop
takes REFERENCE_LOOP_NS: the machine the baseline was recorded on, 2 vCPUs
at 2.1 GHz under Python 3.11.7, when lightly loaded.  The loop is
benchmark code, so a change to polygrid never moves it.  The process gets
no threads: the loop runs in the signal handler, between two bytecodes of
whatever was running.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from typing import List

LOOP_ITERATIONS = 3000
# Time of one loop on the reference machine when lightly loaded.
REFERENCE_LOOP_NS = 950_000
# One loop (1-2 ms) every 20 ms: 5-8% of the run, left out of every time.
PERIOD_S = 0.02
# Loops run when the timer starts and stops, and loops on each side of an
# interval that scale it.
NEIGHBOURS = 6


def _neg(v: int) -> int:
    return -v


def _loop() -> int:
    d: dict = {}
    s: set = set()
    acc = 0
    for i in range(LOOP_ITERATIONS):
        k = (i * 7919) & 1023
        d[k] = d.get(k, 0) + i
        if i % 3 == 0:
            s.add((k, i & 15))
        acc += len(d) * (i % 7)
    return acc + len(s) + sorted(d.values(), key=_neg)[0]


class Speed:
    """Loop timings by time of day; a context manager that runs the timer."""

    def __init__(self):
        self.at_ns: List[int] = []
        self.loop_ns: List[int] = []
        self._busy = False
        self._previous = None

    def __enter__(self) -> "Speed":
        for _ in range(NEIGHBOURS):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(NEIGHBOURS):
            self._sample()

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:          # a late signal while the loop still runs
            return
        self._busy = True
        try:
            self._sample()
        except RecursionError:  # interrupted at the recursion limit
            pass
        finally:
            self._busy = False

    def _sample(self) -> None:
        start = time.perf_counter_ns()
        _loop()
        self.loop_ns.append(time.perf_counter_ns() - start)
        self.at_ns.append(start)

    def busy_ns(self, start_ns: int) -> int:
        """Time spent in loops since start_ns."""
        return sum(self.loop_ns[bisect_left(self.at_ns, start_ns):])

    def factor(self, start_ns: int, end_ns: int) -> float:
        """REFERENCE_LOOP_NS over the mean time of the loops run between
        start_ns and end_ns and the NEIGHBOURS loops on either side.  The
        mean, not the median, because an interval's time is the sum of its
        slow and fast moments; the fastest and slowest fifth are dropped,
        so that one loop preempted by the system does not rescale it."""
        lo = max(0, bisect_left(self.at_ns, start_ns) - NEIGHBOURS)
        hi = bisect_right(self.at_ns, end_ns) + NEIGHBOURS
        around = sorted(self.loop_ns[lo:hi])
        cut = len(around) // 5
        return REFERENCE_LOOP_NS / statistics.fmean(
            around[cut:len(around) - cut])
