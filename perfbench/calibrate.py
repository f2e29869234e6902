"""A fixed reference computation that measures the host's speed.

The kernel does what the package's inner loops do (Fraction arithmetic
accumulated in a dict under tuple keys) but calls nothing from the
package, so its time changes with the host and not with a commit.  It
runs with the garbage collector off, so that a large heap left by the
workload does not make it slower.

A shared host's speed changes several times a minute, also in the middle
of a long op, so ``Sampler`` times the kernel from a SIGALRM handler at a
fixed wall-clock interval while the ops run.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction as F


def _kernel():
    acc = {}
    for i in range(1, 200):
        key = (i % 13, i % 5)
        acc[key] = acc.get(key, F(0)) + F(i, 7) * F(3, i + 1)
    return acc


def _timed_kernel():
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        _kernel()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Times the kernel every ``every`` seconds of wall time, interrupting
    whatever runs, while the ``with`` block is open.

    ``times`` holds every sample's kernel time in order, and ``spent`` the
    seconds spent in the handler, which the caller subtracts from an op's
    latency.
    """

    def __init__(self, every):
        self.every = every
        self.times = []
        self.spent = 0.0
        self._previous = None

    def sample(self, *_signal):
        t = time.perf_counter()
        self.times.append(_timed_kernel())
        self.spent += time.perf_counter() - t

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
