"""Host-speed calibration: a fixed pure-Python loop timed next to the work.

On a shared VM the speed of a vCPU switches between levels (the slow one
about 1.45 times the fast one), sometimes many times a second, sometimes
not for tens of seconds, and the share of slow time drifts from one hour to
the next.  The loop, timed in the same process and on the same CPU as the
work, sees the same levels.  A wall time multiplied by `scale()` of the
loop times taken during it is the wall time at the speed at which the loop
takes REF_S seconds: it moves with the program, not with the host.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

REF_S = 0.0009      # the loop's time at the fast level of a 2.1 GHz Xeon vCPU
INTERVAL_S = 0.05   # Sampler: one loop per 50 ms of wall time, about 2%


def _loop() -> int:
    """Exact rational and dict work, the kind twistkit does."""
    table = {}
    acc = Fraction(0)
    for i in range(1, 120):
        x = Fraction(i, i + 7) * Fraction(2 * i + 1, 3 * i + 2)
        acc += x
        key = (i % 11, i % 7, i % 5)
        table[key] = table.get(key, 0) + x.numerator * x.denominator
    return acc.numerator % 1000003 + len(table)


def loop_time() -> float:
    """Seconds one run of the loop takes now."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


class Sampler:
    """Times the loop every INTERVAL_S seconds of wall time, on SIGALRM,
    in between the work of the process that starts it."""

    def __init__(self):
        self.samples = []          # (perf_counter at start, loop seconds)

    def _tick(self, signum, frame):
        self.samples.append((time.perf_counter(), loop_time()))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def loops(self) -> list:
        return [s for _, s in self.samples]

    def around(self, t0, t1) -> list:
        """Loop times taken from t0 to t1, and the one just before and
        the one just after, so that a short interval has some too."""
        before = [s for t, s in self.samples if t < t0][-1:]
        inside = [s for t, s in self.samples if t0 <= t < t1]
        after = [s for t, s in self.samples if t >= t1][:1]
        return before + inside + after


def bracket(n=3) -> list:
    """n loop times, taken now."""
    return [loop_time() for _ in range(n)]


def scale(loops) -> float:
    """Factor that brings a wall time, during which the loop took `loops`
    seconds (at least one), to the speed at which the loop takes REF_S."""
    return REF_S * len(loops) / sum(loops)
