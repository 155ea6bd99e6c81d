"""Timings rescaled to a fixed reference speed.

On a shared virtual machine the speed of pure-Python code drifts in
phases of several seconds to minutes: the same call can take 1.6 times as
long in a slow phase.  A fixed reference routine, written here with the
standard library only so that no change to qwhit can alter it, is run in
short probes between timed calls.  Each call's time is divided by the
slowdown the probes on either side of it show against ``REFERENCE_S``, so a
timing reads as seconds on a machine where one reference run takes
``REFERENCE_S``.  The raw times are kept beside the rescaled ones.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# One run of ``reference`` on the 2-vCPU machine the benchmark was written
# on, in a typical phase.
REFERENCE_S = 0.007


def reference():
    """Exact elimination on a fixed 8x8 rational matrix and a product of
    two dict-of-monomial polynomials: the kind of work qwhit does."""
    n = 8
    a = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + 2 * j) % 5 + 1) + (i == j)
          for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c])
        a[c], a[p] = a[p], a[c]
        inv = 1 / a[c][c]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    poly = {(i, j): Fraction(i - j, i + j + 1)
            for i in range(6) for j in range(6)}
    out = {}
    for (i, j), c in poly.items():
        for (k, m), d in poly.items():
            out[(i + k, j + m)] = out.get((i + k, j + m), 0) + c * d
    return a, out


class Timing:
    """One timed call: ``raw`` seconds, and ``scaled`` once the probe
    after it has run."""

    __slots__ = ("raw", "scaled")

    def __init__(self, raw):
        self.raw = raw
        self.scaled = None


class Clock:
    """Times calls and probes the machine's speed between them.

    A probe runs ``reference`` for ``probe_s`` seconds.  One follows every
    ``every_s`` seconds of timed work, so a long call is bracketed by its
    own probes and short calls share a pair.  Call ``flush`` once timing is
    done, before reading ``scaled``.
    """

    def __init__(self, probe_s=0.05, every_s=0.5):
        self.probe_s = probe_s
        self.every_s = every_s
        self.probes = []
        self._pending = []
        self._work = 0.0
        self._last = self._probe()

    def _probe(self):
        runs = []
        start = time.perf_counter()
        while not runs or time.perf_counter() - start < self.probe_s:
            t = time.perf_counter()
            reference()
            runs.append(time.perf_counter() - t)
        speed = statistics.median(runs)
        self.probes.append(speed)
        return speed

    def timed(self, fn):
        """Run ``fn()``; return (Timing, its result)."""
        start = time.perf_counter()
        result = fn()
        timing = Timing(time.perf_counter() - start)
        self._pending.append(timing)
        self._work += timing.raw
        if self._work >= self.every_s:
            self.flush()
        return timing, result

    def flush(self):
        if not self._pending:
            return
        now = self._probe()
        scale = REFERENCE_S / ((self._last + now) / 2)
        for timing in self._pending:
            timing.scaled = timing.raw * scale
        self._pending, self._work, self._last = [], 0.0, now
