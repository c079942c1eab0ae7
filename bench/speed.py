"""Machine-speed reference: a fixed exact-arithmetic kernel timed between operations.

On a shared machine the same code runs tens of percent faster or slower
from one second to the next.  The worker times this kernel, which does the
kind of work plumblat does (Fraction elimination, integer Bareiss steps),
between operations and never inside one.  Reported times are wall times
scaled to a machine on which the kernel takes ``NOMINAL_S``: each operation
is multiplied by ``NOMINAL_S`` over the median kernel time of the samples
nearest to it.  The kernel is the benchmark's own code, so a change to
plumblat moves the scaled times exactly as it moves the wall times.
"""

from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.002
# samples on each side of an operation that set its scale
WINDOW = 5


def kernel() -> int:
    n = 7
    a = [[Fraction(-2 if i == j else int(abs(i - j) == 1)) for j in range(n)]
         + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    m = [[2 if i == j else -int(abs(i - j) == 1) for j in range(16)] for i in range(16)]
    prev = 1
    for k in range(16):
        piv = m[k][k]
        for i in range(k + 1, 16):
            for j in range(k + 1, 16):
                m[i][j] = (piv * m[i][j] - m[i][k] * m[k][j]) // prev
        prev = piv
    return prev + a[0][n].numerator


def sample() -> tuple[float, float]:
    """(time taken, time it ended) of one kernel run."""
    t = perf_counter()
    kernel()
    end = perf_counter()
    return end - t, end


def scaled(times: list[float], starts: list[float], samples: list[tuple[float, float]]) -> list[float]:
    """``times`` scaled by the kernel samples nearest to each start."""
    ends = [e for _, e in samples]
    out = []
    for t, s in zip(times, starts):
        i = bisect.bisect(ends, s)
        near = [d for d, _ in samples[max(0, i - WINDOW):i + WINDOW]]
        out.append(t * NOMINAL_S / statistics.median(near))
    return out
