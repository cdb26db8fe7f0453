"""Host-speed tracking: durations are reported at a fixed reference speed.

Shared hosts change speed by up to a factor of two within seconds
(frequency scaling, busy neighbours on the same core), which would swamp
any change in the program.  A run therefore times a fixed probe before
every operation -- small-Fraction dot products collected in a set, which
shares no code with psr -- and scales every measured duration by
``PROBE_NOMINAL_S / median(probe times within WINDOW_S of it)``.  A
reported millisecond is a millisecond on a host where the probe takes
``PROBE_NOMINAL_S``.  The raw figures stay in ``run_info``.

An operation that starts a process (the ``cli`` workload) is mostly
interpreter start-up, whose time does not follow the speed of Python code
(on a shared 2-vCPU host, an empty interpreter started in 42 ms both
while the probe above took 1.9 ms and while it took 2.3 ms).  Such runs
probe instead by starting an empty interpreter (``python -c pass``, which
imports no psr code) and scale to ``PROCESS_NOMINAL_S`` for it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from statistics import median
from time import perf_counter

PROBE_NOMINAL_S = 0.002
PROCESS_NOMINAL_S = 0.040
WINDOW_S = 0.5
MIN_PROBES = 7


_VECS = [tuple(Fraction((i * j) % 7 - 3, 1 + (i + j) % 3) for j in range(3)) for i in range(40)]


def _probe_work() -> int:
    """Small-Fraction dot products into a set, like the inner loops of psr."""
    seen = set()
    for a in _VECS:
        for b in _VECS[:5]:
            seen.add(sum(x * y for x, y in zip(a, b)))
    return len(seen)


def _start_interpreter() -> None:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PSR_")}
    # no timeout: with one, the wait polls and rounds the time up
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)


class Speed:
    def __init__(self, process: bool = False) -> None:
        """process: probe by starting an interpreter instead of with Python code."""
        self.work = _start_interpreter if process else _probe_work
        self.nominal = PROCESS_NOMINAL_S if process else PROBE_NOMINAL_S
        self.at: list[float] = []
        self.took: list[float] = []

    def probe(self) -> None:
        t0 = perf_counter()
        self.work()
        self.at.append(t0)
        self.took.append(perf_counter() - t0)

    def scaled(self, t0: float, t1: float) -> float:
        """The duration t1 - t0 at the reference speed."""
        lo = bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect_right(self.at, t1 + WINDOW_S)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.at)):
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        return (t1 - t0) * self.nominal / median(self.took[lo:hi])

    def probe_median_s(self) -> float:
        return median(self.took)
