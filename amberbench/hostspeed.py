"""Host speed: how fast this machine runs a fixed piece of work right now.

On a shared virtual machine the speed of a vCPU drifts with the load
other machines put on the host, by up to a factor of two between runs a
few minutes apart, with little of it showing as steal.  A rep's host
time is therefore scaled by the host's speed at that moment: a fixed
probe (interpreter work and a numpy stencil, like the workloads, and
none of the program's code) is timed before and after every rep, and
the rep's seconds are divided by the probes' mean time over
``NOMINAL_S``; a set-up's seconds are divided by one probe run right
after it.  The result reads as seconds on a host where the probe takes
``NOMINAL_S``.  Where the workload's slowdown tracks the probe's,
the drift cancels; where it does not, it stays.
"""

from __future__ import annotations

import heapq
from time import perf_counter

import numpy

#: The probe's time on the reference host.
NOMINAL_S = 0.05
_HEAP_ITEMS = 20_000
_GRID = (100, 800)
_SWEEPS = 40


def _work() -> None:
    heap: list = []
    counts: dict = {}

    def keys(n: int):
        for i in range(n):
            yield i

    for i in keys(_HEAP_ITEMS):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        counts[i % 97] = counts.get(i % 97, 0) + 1
    while heap:
        heapq.heappop(heap)
    grid = numpy.arange(_GRID[0] * _GRID[1], dtype=float).reshape(_GRID)
    for _ in range(_SWEEPS):
        grid[1:-1, 1:-1] = 0.25 * (grid[:-2, 1:-1] + grid[2:, 1:-1]
                                   + grid[1:-1, :-2] + grid[1:-1, 2:])


def probe() -> float:
    """Seconds the fixed probe takes now."""
    t0 = perf_counter()
    _work()
    return perf_counter() - t0


def slowdown() -> float:
    """The host's slowdown now: the probe's seconds over NOMINAL_S."""
    return probe() / NOMINAL_S


class Clock:
    """Times reps in reference seconds: ``rep_s(seconds)`` takes a rep's
    host seconds, just measured, and probes the host after it."""

    def __init__(self) -> None:
        self._before = probe()
        #: Host speed over each rep, as probe seconds / NOMINAL_S.
        self.slowdowns: list = []

    def rep_s(self, seconds: float) -> float:
        after = probe()
        slowdown = (self._before + after) / 2 / NOMINAL_S
        self._before = after
        self.slowdowns.append(slowdown)
        return seconds / slowdown
