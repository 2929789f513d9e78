"""A fixed reference kernel: how fast this machine runs Python right now.

On a shared virtual machine the same code runs up to twice as slow for
stretches of seconds to minutes, and the process's CPU time slows with its
wall time, so neither clock can separate the program's cost from the
machine's state.  The benchmark therefore interleaves this kernel with the
measured work and reports each time scaled by REF_S / (the kernel's time
around it): the time the work would take on a machine where the kernel
takes REF_S.  The machine changes speed within a second, so the kernel is
sampled from a timer signal during the work (Sampler), and each operation
is scaled by the samples taken during it and just around it.  The kernel
exercises what the package spends its time on (Fraction arithmetic, list
rows, subset enumeration) and shares no code with it, so a change to the
package never moves it.
"""

import signal
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations

# One kernel call on a 2-vCPU Xeon virtual machine (Python 3.11) when the
# host left it alone.  A constant: it only sets the scale of the results.
REF_S = 0.008


def kernel() -> Fraction:
    """Exact elimination on a 9x9 Hilbert-like matrix, then admissible subset sums."""
    n = 9
    m = [[Fraction(1, i + j + 1) + (i == j) for j in range(n)] for i in range(n)]
    for c in range(n):
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    x = {i: Fraction(i % 7 + 1, i + 3) for i in range(1, 15)}
    best = Fraction(0)
    for size in range(1, 6):
        for F in combinations(range(1, 15), size):
            if F[0] >= size:
                best = max(best, sum((x[i] for i in F), Fraction(0)))
    return best + m[n - 1][n - 1]


def sample(calls: int = 1) -> float:
    """Seconds per kernel call, over `calls` calls."""
    t0 = time.perf_counter()
    for _ in range(calls):
        kernel()
    return (time.perf_counter() - t0) / calls


class Sampler:
    """Sample the kernel every `interval` seconds from SIGALRM while active.

    Python runs the handler between two bytecodes of the measured code, so
    the samples fall inside the work they describe.  `busy_s` is the time
    spent in the handler so far; a caller subtracts its growth over an
    operation from the operation's time.
    """

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.times: list[float] = []  # perf_counter() at the middle of each sample
        self.samples: list[float] = []  # seconds per kernel call
        self.busy_s = 0.0

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.samples.append(t1 - t0)
        self.busy_s += t1 - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def clock_ns(self) -> int:
        """perf_counter_ns() less the handler's time so far: stops while the kernel runs."""
        while True:
            busy = self.busy_s
            now = time.perf_counter_ns()
            if busy == self.busy_s:  # no handler ran in between
                return now - round(busy * 1e9)

    def ref_s(self, start: float, end: float, margin: float = 0.1) -> float:
        """Mean kernel time of the samples within `margin` s of [start, end]."""
        lo = bisect_left(self.times, start - margin)
        hi = bisect_right(self.times, end + margin)
        if lo == hi:  # no sample that close: take the nearest one
            lo = min(max(lo - (lo == len(self.times)), 0), len(self.times) - 1)
            hi = lo + 1
        window = self.samples[lo:hi]
        return sum(window) / len(window)
