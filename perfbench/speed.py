"""Machine-speed probe: a fixed numpy kernel timed between blocks of work.

On a shared virtual machine the same work takes up to 60% longer from one
second to the next, and whole minutes run 15-30% slow: the physical cores are
shared with other tenants.  The slowdown hits single-threaded numpy code
about equally, so the benchmark times this kernel, which does not touch
``onofri``, before the first call and after every block of about half a
second of measured work.  A probe's speed factor is the kernel's median time
per call over ``REFERENCE_S``; a call's calibrated time is its measured time
divided by the mean of the factors just before and just after its block.  A
change to the library leaves the kernel's time alone and moves calibrated
times as much as measured ones.

The kernel mixes what the library spends its time on: a dense matrix product
(the Legendre transforms), elementwise transcendental functions over a few
ten thousand points (the Mobius maps and ``exp(2u)``), reductions, and a short
interpreted loop (the Python between numpy calls).  It allocates nothing.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# About the median seconds per kernel call on the machine the benchmark was
# defined on (2-vCPU x86-64 VM, Python 3.11, numpy 2.4, one BLAS thread).
# It only sets the scale of calibrated times; comparisons do not depend on it.
REFERENCE_S = 0.75e-3

# Kernel time spent per second of measured work, and the fewest calls per probe.
PROBE_SHARE = 0.04
MIN_CALLS = 4


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((120, 160))
        self._b = rng.standard_normal((160, 320))
        self._x = rng.standard_normal(40_000)
        # every array the kernel writes is allocated here: an allocation in
        # the kernel would time the allocator, whose cost depends on what the
        # process allocated and freed before (glibc's mmap threshold moves)
        self._c = np.empty((120, 320))
        self._y = np.empty(40_000)
        self._kernel()  # first call pays for page faults and BLAS set-up

    def _kernel(self) -> float:
        c, y, x = self._c, self._y, self._x
        np.matmul(self._a, self._b, out=c)
        np.tanh(c, out=c)
        np.exp(c, out=c)
        s = float(c.sum())
        np.multiply(x, x, out=y)
        y += 1.0
        np.sqrt(y, out=y)
        s += float(y.sum())
        np.cos(x, out=y)
        s += float(y.dot(x))
        for i in range(200):
            s += math.sin(i)
        return s

    def factor(self, work_s: float) -> float:
        """Speed factor after ``work_s`` seconds of work: > 1 means slow."""
        calls = max(MIN_CALLS, math.ceil(PROBE_SHARE * work_s / REFERENCE_S))
        times = []
        for _ in range(calls):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        return statistics.median(times) / REFERENCE_S
