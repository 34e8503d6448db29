"""The machine's speed, measured by a fixed reference computation between ops.

On a shared host the same op can take up to 1.9x longer in one minute than in
the next, while it does the same work.  So a run times a fixed kernel (exact
``Fraction`` arithmetic and 4x4 complex ``numpy.linalg`` calls, the two kinds
of work gatecover does) ``BURST`` times every ``SAMPLE_EVERY_S`` seconds
between ops, and scales each op's time by ``NOMINAL_S / k``, with ``k`` the
median time of the kernel calls just before and just after the op: seconds on
a machine where the kernel takes ``NOMINAL_S``.  Each call is one sample, as
each op is: the median of single calls slows down with the machine as the
median op does, where the fastest of a few calls does not.  The kernel calls
nothing of gatecover, so a change to the library cannot move it; a slower
library still reads slower.  The raw wall-clock figures are printed beside
the scaled ones.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from fractions import Fraction

import numpy as np

NOMINAL_S = 0.0034        # about the kernel's median time on the 2-vCPU machine of the README
SAMPLE_EVERY_S = 0.1
BURST = 3                 # calls per sampling; an op is scaled by the BURST calls on each side

_M = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4))
                  + 1j * np.random.default_rng(1).normal(size=(4, 4)))[0]


def kernel() -> Fraction:
    acc = Fraction(0)
    for k in range(1, 400):
        acc += Fraction(k, k * k + 1)
    for _ in range(50):
        np.linalg.eig(_M)
        np.linalg.svd(_M)
    return acc


def measure(clock=time.perf_counter) -> float:
    t0 = clock()
    kernel()
    return clock() - t0


class SpeedLog:
    """Kernel times sampled through a run, and the factors they give."""

    def __init__(self, clock=time.perf_counter, measure=measure):
        self.clock = clock
        self.measure = measure
        self.times: list[float] = []      # when each call started, ascending
        self.samples: list[float] = []    # how long it took
        self._last = -math.inf

    def sample(self) -> None:
        for _ in range(BURST):
            self.times.append(self.clock())
            self.samples.append(self.measure())
        self._last = self.clock()

    def maybe_sample(self) -> None:
        if self.clock() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def kernel_s(self) -> float:
        return statistics.median(self.samples)

    def factor(self, t0: float, t1: float) -> float:
        """Multiply the duration of [t0, t1] by this to get nominal-machine seconds.

        The factor comes from the BURST calls that started last before t0 and
        the BURST calls that started first after t1.
        """
        before = bisect.bisect_right(self.times, t0)
        after = bisect.bisect_left(self.times, t1)
        near = self.samples[max(0, before - BURST):before] + self.samples[after:after + BURST]
        return NOMINAL_S / statistics.median(near)
