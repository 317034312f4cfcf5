"""Machine-speed calibration, so that timings do not follow the neighbours.

On a shared machine other tenants slow every process by up to a half, in
phases that last from a second to minutes: a fixed loop reads 0.07 s in one
five-second window and 0.11 s in another.  A fixed kernel shaped like the
program's inner loops (a dense matrix product over Q and over F_3 that skips
zeros and builds tuples) is timed every ``EVERY`` seconds on SIGALRM, so also
in the middle of a long job, in this same thread.  An interval's time is
scaled by REF_S over the mean kernel time of the samples inside it and the
one on each side, after the time the samples themselves took is taken out.

REF_S is a fixed reference: the kernel's typical time inside benchmark runs
on the 2-core machine the benchmark was built on (it runs slower there than
alone, 11 ms).  Reported times are seconds scaled to that speed, so they read
close to, but not the same as, the raw wall time; perfbench/reference.py
prints both.  The kernel does not call the program, so no change to the
program moves it.
"""

from __future__ import annotations

import bisect
import gc
import signal
from fractions import Fraction
from time import perf_counter

REF_S = 0.018
EVERY = 0.5


def kernel() -> None:
    n = 18
    for one, p in ((Fraction(1), 0), (1, 3)):
        f = tuple(one * ((i * 7 + 3) % 5) for i in range(n * n))
        g = tuple(one * ((i * 3 + 1) % 4) for i in range(n * n))
        out = []
        for r in range(n):
            nonzero = [(t, a) for t, a in enumerate(f[r * n:(r + 1) * n]) if a != 0]
            for c in range(n):
                acc = 0 * one
                for t, a in nonzero:
                    b = g[t * n + c]
                    if b != 0:
                        acc = (acc + a * b) % p if p else acc + a * b
                out.append(acc)
        tuple(out)


class Speedometer:
    def __init__(self):
        self.starts: list[float] = []    # when each sample began
        self.kernel_s: list[float] = []  # the kernel's time in it
        self.busy_s: list[float] = []    # the whole sample, to take out of timings
        self.running = False

    def _sample(self, *_signal) -> None:
        start = perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            kernel()
            mid = perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.starts.append(start)
        self.kernel_s.append(mid - start)
        self.busy_s.append(perf_counter() - start)

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY, EVERY)
        self.running = True

    def stop(self) -> None:
        if self.running:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self.running = False
            self._sample()

    def scaled(self, start: float, end: float) -> float:
        """Seconds at the reference speed spent in [start, end] outside samples.

        Needs a sample after ``end``: call it once the run has stopped."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        busy = sum(self.busy_s[lo:hi])
        window = self.kernel_s[max(lo - 1, 0):hi + 1]
        return (end - start - busy) * REF_S * len(window) / sum(window)
