"""A reference kernel that measures how fast the CPU runs at a moment.

On a shared host the same work can take 1.5x longer for a minute or two
while CPU time still tracks wall time: the CPU itself runs slower, so
pinning or ``process_time`` cannot remove it. The benchmark runs this
fixed kernel between operations and rescales each operation's time by
``REFERENCE_S`` over the kernel times measured around it. A rescaled time
reads as the time the operation would have taken while the kernel took
``REFERENCE_S``, its usual time on the reference machine of README.md.

The kernel is a sparse polynomial product on a dict, as ``dqsym``'s
kernel is: packed integer exponent keys and multi-word coefficients.
It creates one object the garbage collector tracks per call (the output
dict), so it neither triggers nor postpones the program's collections.
It lives in the benchmark, so it is the same code on both sides of any
comparison of ``dqsym`` versions.
"""

from __future__ import annotations

import bisect
import random
import statistics
from time import perf_counter

# the kernel's median time on the reference machine
REFERENCE_S = 0.0025
# kernel samples a rescaling factor is the median of
NEAREST = 5

_rng = random.Random("calib")
# exponent vectors of 4 variables, 6 bits each, packed into one int
_A = {
    sum(_rng.randrange(8) << (6 * v) for v in range(4)): _rng.getrandbits(90)
    for _ in range(110)
}
_B = {
    sum(_rng.randrange(8) << (6 * v) for v in range(4)): _rng.getrandbits(90)
    for _ in range(110)
}


def kernel() -> int:
    out: dict[int, int] = {}
    get = out.get
    for ka, ca in _A.items():
        for kb, cb in _B.items():
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return len(out)


class Samples:
    """Kernel runs of one process: (start, duration) in perf_counter time."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> float:
        start = perf_counter()
        kernel()
        duration = perf_counter() - start
        self.starts.append(start)
        self.durations.append(duration)
        return duration

    def total_s(self) -> float:
        return sum(self.durations)


def factor(durations: list[float]) -> float:
    """The rescaling factor for work run while the kernel took ``durations``."""
    return REFERENCE_S / statistics.median(durations)


def rescale(starts: list[float], latencies: list[float],
            kernel_starts: list[float], kernel_durations: list[float]) -> list[float]:
    """Each operation's latency times the factor of the ``NEAREST``
    kernel samples closest to the operation's middle."""
    out = []
    n = len(kernel_starts)
    k = min(NEAREST, n)
    for start, latency in zip(starts, latencies):
        mid = start + latency / 2
        lo = bisect.bisect_left(kernel_starts, mid)
        # widen the window [lo, hi) one nearest sample at a time
        hi = lo
        while hi - lo < k:
            if lo == 0:
                hi += 1
            elif hi == n or mid - kernel_starts[lo - 1] <= kernel_starts[hi] - mid:
                lo -= 1
            else:
                hi += 1
        out.append(latency * factor(kernel_durations[lo:hi]))
    return out
