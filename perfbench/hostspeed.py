"""Host-speed reference: fixed work timed between env steps, so that measured
times can be expressed at a nominal host speed.

On a shared host the same work takes up to 50% longer from one minute to
the next (see DESIGN.md), and CPU time moves with wall time, so neither
longer runs nor CPU clocks remove it.  A reference pass runs three fixed
kernels that resemble the program's own work: an interpreter loop, small
matrix products with a tanh, and many numpy calls on tiny arrays.  Their
code lives here and never changes with the program, so a program change
cannot move them.  A pass reports the host's slowness: the mean over the
kernels of measured over nominal time, 1.0 at nominal speed.  A span of
program work measured with a pass per EVERY_S seconds of it is then
reported as its wall time (passes excluded) divided by the mean slowness
of the passes inside it.

The kernels draw from no RNG the program uses and touch no program state;
the benchmark's repeat checks show that outputs stay byte-identical.
"""

from __future__ import annotations

import time

import numpy as np

clock = time.perf_counter

EVERY_S = 0.1  # program time per reference pass
MAX_PASSES = 10  # at one tick, after a long step
WARMUP_PASSES = 3

_MAT = np.random.default_rng(20210401).standard_normal((64, 64))
_VEC = np.ones(3)


def _interpreter():
    s = 0
    for i in range(10000):
        s += i * i
    return s


def _small_matmul():
    x = _MAT
    for _ in range(30):
        x = np.tanh(x @ _MAT * 0.01)
    return x


def _tiny_arrays():
    x = _VEC
    for _ in range(300):
        x = np.add(x, _VEC) * 0.5
    return x


# kernel, nominal seconds: the medians of 5859 passes interleaved with
# desk-pushing job rounds on a shared 2-core Intel Xeon VM at 2.1 GHz
KERNELS = ((_interpreter, 0.70e-3), (_small_matmul, 0.76e-3), (_tiny_arrays, 0.52e-3))


def reference_pass():
    """The host's slowness now: mean over the kernels of measured / nominal."""
    total = 0.0
    for kernel, nominal in KERNELS:
        t = clock()
        kernel()
        total += (clock() - t) / nominal
    return total / len(KERNELS)


class HostSpeed:
    """Runs a reference pass per EVERY_S seconds of program time (from
    `tick`, hooked after each env step, so passes spread over a span in
    proportion to its time) and times program spans at nominal speed."""

    def __init__(self):
        for _ in range(WARMUP_PASSES):
            reference_pass()
        self.slowness = []  # one entry per reference pass
        self.spent_s = 0.0  # wall time inside reference passes
        self._last = clock()

    def _pass(self):
        t = clock()
        self.slowness.append(reference_pass())
        self._last = clock()
        self.spent_s += self._last - t

    def tick(self):
        due = int((clock() - self._last) / EVERY_S)
        for _ in range(min(due, MAX_PASSES)):
            self._pass()

    def hook(self, env):
        """Tick after every step of this env instance."""
        step = env.step

        def stepping(action):
            out = step(action)
            self.tick()
            return out

        env.step = stepping

    def sample(self, n):
        """Mean slowness of n passes run now, away from any program span."""
        first = len(self.slowness)
        for _ in range(n):
            self._pass()
        return float(np.mean(self.slowness[first:]))

    def timed(self, fn, *args):
        """Run fn(*args); returns (seconds at nominal speed, raw seconds
        without the passes, result).  A span too short for a pass of its
        own is scaled by one pass run right after it."""
        first, spent, t = len(self.slowness), self.spent_s, clock()
        out = fn(*args)
        raw = clock() - t - (self.spent_s - spent)
        if len(self.slowness) == first:
            self._pass()
        return raw / float(np.mean(self.slowness[first:])), raw, out
