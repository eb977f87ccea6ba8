"""A fixed pure-Python kernel that gauges how fast the machine runs Python now.

On the 2-vCPU host the baseline was recorded on, the speed of one Python
process drifts by up to a factor of two within seconds as neighbours
load the machine; raw pass times spread 10-20 % between runs, which
swamps any change worth measuring.  The kernel allocates and combines
small objects scattered over a few MiB, as rdpk3 does, but is frozen
here, so it slows with the host and not with the program.  Each pass
is rescaled by the kernel's time around it.

Pass times grow more slowly than the kernel's: a log-log fit of pass
time on kernel time, over ten runs of each workload, gives exponents
0.57-0.65, biased low by the kernel's own noise.  Rescaling with the exponent SENSITIVITY = 0.75
cut the spread of run medians over ten seeds to 3-7 % on every workload,
against 2.8-12.6 % with exponent 1.
"""

import random
import statistics
import time

P = 7

# The kernel's time on the machine the baseline was recorded on (2 vCPUs,
# Python 3.11.7); a rescaled time reads as seconds on that machine.
REFERENCE_KERNEL_S = 0.09
SENSITIVITY = 0.75


class _Scalar:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v % P

    def __mul__(self, other):
        return _Scalar(self.v * other.v)

    def __add__(self, other):
        return _Scalar(self.v + other.v)


def _kernel(size=40000):
    """Allocate small objects, scatter them, and combine them in that order.

    The objects spread over a few MiB, as rdpk3's do, so the kernel feels
    neighbours' pressure on caches and memory the way the package does.
    Over 0.1 s chunks of the workloads its time correlates 0.55-0.8 with
    theirs in log scale; a kernel that fits in the first-level cache
    reached only 0.35-0.5.
    """
    objs = [_Scalar(i) for i in range(size)]
    random.Random(size).shuffle(objs)
    acc = _Scalar(0)
    for o in objs:
        acc = acc + o * o
    return acc.v


def kernel_seconds(repeats=3):
    """Median wall time of one kernel run, over ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def rescaled(seconds, kernel_s):
    """A wall time taken while the kernel ran in kernel_s, at reference speed."""
    return seconds * (REFERENCE_KERNEL_S / kernel_s) ** SENSITIVITY
