"""mobility-sim: the paper's object-mobility mechanisms on the simulator.

Eight threads on a 4-node x 2-CPU cluster each run a seeded plan over 64
small mobile objects: function-shipped invocations, MoveTo (which leaves
forwarding addresses behind), Locate, reads of one immutable (replicated)
table, and Lock-protected reads.  User code is a few lines per operation,
so the kernel protocol, the engine, the schedulers and ``repro.sim.sync``
carry almost all host time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.sim import (
    AmberProgram,
    Charge,
    ClusterConfig,
    Fork,
    Invoke,
    Join,
    Locate,
    Lock,
    MoveTo,
    New,
    SetImmutable,
    SimObject,
)

NODES = 4
CPUS_PER_NODE = 2
THREADS = 8
CELLS = 64
LOCKS = 8
OPS_PER_THREAD = 500

#: Plan mix, in percent of each thread's operations.  Every thread gets
#: exactly these counts (shuffled), so the seed changes the order and
#: the targets but not the amount of each kind of work.
MIX = (("invoke", 55), ("move", 15), ("locate", 8), ("table", 10),
       ("locked", 12))

#: Simulated CPU cost of the operations' bodies, microseconds.
BUMP_US = 20.0
READ_US = 10.0

Op = Tuple[str, int, int]


@dataclass(frozen=True)
class Plan:
    #: Node each cell is created on.
    homes: Tuple[int, ...]
    #: One operation list per thread: (kind, cell index, argument).
    threads: Tuple[Tuple[Op, ...], ...]

    @property
    def ops(self) -> int:
        return sum(len(ops) for ops in self.threads)

    def bump_counts(self) -> List[int]:
        """What each cell's value must be once every thread is done."""
        counts = [0] * CELLS
        for ops in self.threads:
            for kind, cell, _ in ops:
                if kind == "invoke":
                    counts[cell] += 1
        return counts


def make_plan(seed: int) -> Plan:
    rng = random.Random(seed)
    homes = tuple(rng.randrange(NODES) for _ in range(CELLS))
    threads = []
    for _ in range(THREADS):
        kinds = [kind for kind, percent in MIX
                 for _ in range(percent * OPS_PER_THREAD // 100)]
        rng.shuffle(kinds)
        ops = []
        for kind in kinds:
            cell = rng.randrange(CELLS)
            arg = rng.randrange(NODES) if kind == "move" else 0
            ops.append((kind, cell, arg))
        threads.append(tuple(ops))
    return Plan(homes, tuple(threads))


class Cell(SimObject):
    """A small mobile counter."""

    SIZE_BYTES = 128

    def __init__(self) -> None:
        self.value = 0

    def bump(self, ctx):
        yield Charge(BUMP_US)
        self.value += 1
        return self.value

    def read(self, ctx):
        yield Charge(READ_US)
        return self.value


class Table(SimObject):
    """A read-only lookup table; made immutable, so it replicates."""

    SIZE_BYTES = 2048

    def __init__(self, size: int) -> None:
        self.rows = tuple(range(size))

    def lookup(self, ctx, index: int):
        yield Charge(READ_US)
        return self.rows[index]


class Worker(SimObject):
    """Anchors one plan thread to its node."""

    def __init__(self, cells, locks, table) -> None:
        self.cells = cells
        self.locks = locks
        self.table = table

    def run(self, ctx, ops):
        """Execute ``ops``; return how many results were wrong."""
        wrong = 0
        for kind, index, arg in ops:
            cell = self.cells[index]
            if kind == "invoke":
                yield Invoke(cell, "bump")
            elif kind == "move":
                yield MoveTo(cell, arg)
            elif kind == "locate":
                node = yield Locate(cell)
                wrong += not 0 <= node < NODES
            elif kind == "table":
                row = yield Invoke(self.table, "lookup", index)
                wrong += row != index
            else:
                lock = self.locks[index % LOCKS]
                yield Invoke(lock, "acquire")
                yield Invoke(cell, "read")
                yield Invoke(lock, "release")
        return wrong


def _main(ctx, plan: Plan):
    table = yield New(Table, CELLS, on_node=0)
    yield SetImmutable(table)
    cells = []
    for home in plan.homes:
        cells.append((yield New(Cell, on_node=home)))
    locks = []
    for index in range(LOCKS):
        locks.append((yield New(Lock, on_node=index % NODES)))
    threads = []
    for index, ops in enumerate(plan.threads):
        worker = yield New(Worker, cells, locks, table,
                           on_node=index % NODES)
        threads.append((yield Fork(worker, "run", ops, name=f"t{index}")))
    wrong = 0
    for thread in threads:
        wrong += yield Join(thread)
    values = []
    for cell in cells:
        values.append((yield Invoke(cell, "read")))
    return values, wrong


class MobilitySim:
    #: The user-code layer: the benchmark's own operations.
    user = ((Cell, "bump"), (Cell, "read"), (Table, "lookup"),
            (Worker, "run"))
    user_resumes = True

    def __init__(self, seed: int) -> None:
        self.plan = make_plan(seed)
        self.ops = self.plan.ops
        self._expected = self.plan.bump_counts()

    def run(self):
        config = ClusterConfig(nodes=NODES, cpus_per_node=CPUS_PER_NODE)
        return AmberProgram(config).run(_main, self.plan)

    def wrong(self, result) -> int:
        """Cells whose final value is not their bump count in the plan,
        plus wrong Locate and table results."""
        values, wrong = result.value
        return wrong + sum(got != want
                           for got, want in zip(values, self._expected))
