"""Steal: CPU time the hypervisor gave to other virtual machines.

On a shared virtual machine, stretches of seconds to minutes lose up to
a third of the CPU to the host.  A live round trip waits for a vCPU at
every wakeup, so a pass run during such a stretch measures the
neighbours, not the program (passes with more than 15% steal ran at
1,000-2,000 ops/s, passes with none at 2,800-3,500).  Every rep records
the share of the machine's busy CPU time that was stolen while it ran,
and a throughput or latency median is always taken over the
least-stolen half of the reps, whatever the steal was.  Where
``/proc/stat`` does not exist, steal reads as zero and the half is the
first half.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, TypeVar

#: Fields of the aggregate ``cpu`` line: user, nice, system, idle,
#: iowait, irq, softirq, steal (guest time is already inside user).
_IDLE, _IOWAIT, _STEAL = 3, 4, 7

T = TypeVar("T")


def cpu_times() -> Optional[Tuple[int, int]]:
    """(steal, busy) clock ticks of all CPUs since boot; busy is every
    tick that was not idle, steal included."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(value) for value in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    busy = sum(fields[:_STEAL + 1]) - fields[_IDLE] - fields[_IOWAIT]
    return fields[_STEAL], busy


def steal_frac(before: Optional[Tuple[int, int]],
               after: Optional[Tuple[int, int]]) -> float:
    """Stolen share of the busy ticks between two readings.  Idle ticks
    are left out, so a program that keeps more CPUs busy is not charged
    more steal for it."""
    if before is None or after is None or after[1] <= before[1]:
        return 0.0
    return (after[0] - before[0]) / (after[1] - before[1])


def least_stolen(items: Sequence[T], steals: Sequence[float]) -> List[T]:
    """The items of the least-stolen half of the reps (at least three,
    or all if there are fewer), in rep order; ties go to earlier reps."""
    keep = max(min(3, len(items)), (len(items) + 1) // 2)
    order = sorted(range(len(items)), key=lambda index: steals[index])
    return [items[index] for index in sorted(order[:keep])]
