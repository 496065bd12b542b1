"""live-mix: a closed-loop client on the live runtime.

The main process (node 0) and one child process (node 1) hold 16
objects.  One client thread in the main process runs a seeded plan of
small invocations, 4 KiB puts and gets, moves and locates.  The client
is the only mover, so it knows whether each operation's target is
remote at call time, and it checks every result as it goes.

One pass of the plan is also replayed on a simulated two-node cluster,
outside the timed phase: its makespan is this workload's
``sim_elapsed_ms``, and its results are checked against the plan too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Tuple

from repro.runtime import AmberObject, Cluster
from repro.sim import (
    AmberProgram,
    Charge,
    ClusterConfig,
    Invoke,
    Locate,
    MoveTo,
    New,
    SimObject,
)

NODES = 2
OBJECTS = 16
PAYLOAD_BYTES = 4096
PAYLOADS = 8
#: Operations per pass; each pass ends with the objects back on their
#: starting nodes, so every pass does the same local and remote work.
PASS_OPS = 1500
#: Plan mix, in percent of a pass.
MIX = (("invoke", 70), ("put", 10), ("get", 10), ("move", 6),
       ("locate", 4))

Op = Tuple[str, int, int]


@dataclass(frozen=True)
class Plan:
    homes: Tuple[int, ...]
    ops: Tuple[Op, ...]
    payloads: Tuple[bytes, ...]


def make_plan(seed: int) -> Plan:
    """One pass: (kind, object, argument).  A move's argument is its
    destination, a put's the index of its payload.

    Half the operations of each kind target an object on the client's
    node and half one on node 1 (for a move: half start from each node),
    so every seed does the same local and remote work."""
    rng = random.Random(seed)
    homes = tuple(index % NODES for index in range(OBJECTS))
    homes = tuple(rng.sample(homes, len(homes)))
    payloads = tuple(rng.randbytes(PAYLOAD_BYTES) for _ in range(PAYLOADS))
    ops: List[Op] = []
    for kind, percent in MIX:
        count = percent * PASS_OPS // 100
        sides = [index % NODES for index in range(count)]
        rng.shuffle(sides)
        ops.extend((kind, side, 0) for side in sides)
    rng.shuffle(ops)
    where = list(homes)
    moves = 0
    for position, (kind, side, _) in enumerate(ops):
        if kind == "move":
            # Alternate directions, so neither node ever runs out.
            side = moves % NODES
            moves += 1
        index = rng.choice([index for index in range(OBJECTS)
                            if where[index] == side])
        arg = 0
        if kind == "move":
            arg = 1 - where[index]
            where[index] = arg
        elif kind == "put":
            arg = rng.randrange(PAYLOADS)
        ops[position] = (kind, index, arg)
    for index, home in enumerate(homes):
        if where[index] != home:
            ops.append(("move", index, home))
    return Plan(homes, tuple(ops), payloads)


class Box(AmberObject):
    """A counter plus a payload slot."""

    def __init__(self) -> None:
        self.count = 0
        self.payload = b""

    def bump(self) -> int:
        self.count += 1
        return self.count

    def put(self, payload: bytes) -> int:
        self.payload = payload
        return len(payload)

    def get(self) -> bytes:
        return self.payload

    def total(self) -> int:
        return self.count


class Client:
    """The closed-loop client on node 0, and its oracle.

    ``run_pass`` executes one pass, appending each operation's latency
    to ``samples`` by kind; every wrong or failed operation is counted
    in ``failed``.
    """

    def __init__(self, cluster: Cluster, plan: Plan) -> None:
        self.cluster = cluster
        self.plan = plan
        self.boxes = [cluster.create(Box, node=home) for home in plan.homes]
        self.where = list(plan.homes)
        self.counts = [0] * OBJECTS
        self.last_put = [b""] * OBJECTS
        self.attempted = 0
        self.failed = 0

    def run_pass(self, samples: Dict[str, List[float]],
                 tracer=None) -> None:
        cluster = self.cluster
        payloads = self.plan.payloads
        for kind, index, arg in self.plan.ops:
            box = self.boxes[index]
            remote = self.where[index] != 0
            if tracer is not None:
                tracer.op_id = self.attempted
                frame = tracer.enter(f"client:{kind}", call=True)
            self.attempted += 1
            t0 = perf_counter()
            try:
                if kind == "invoke":
                    ok = box.bump() == self.counts[index] + 1
                    self.counts[index] += 1
                elif kind == "put":
                    ok = box.put(payloads[arg]) == PAYLOAD_BYTES
                    self.last_put[index] = payloads[arg]
                elif kind == "get":
                    ok = box.get() == self.last_put[index]
                elif kind == "move":
                    cluster.move(box, arg)
                    self.where[index] = arg
                    ok = True
                else:
                    ok = cluster.locate(box) == self.where[index]
            except Exception:
                ok = False
            latency_us = (perf_counter() - t0) * 1e6
            if tracer is not None:
                tracer.exit(frame)
            self.failed += not ok
            if kind == "invoke":
                kind = "invoke_remote" if remote else "invoke_local"
            samples.setdefault(kind, []).append(latency_us)

    def final_check(self) -> int:
        """Wrong final counters (read after the timed phase)."""
        return sum(box.total() != count
                   for box, count in zip(self.boxes, self.counts))


class TwinBox(SimObject):
    """The simulated twin of :class:`Box`."""

    SIZE_BYTES = 128

    def __init__(self) -> None:
        self.count = 0
        self.payload = -1

    def bump(self, ctx):
        yield Charge(5.0)
        self.count += 1
        return self.count

    def put(self, ctx, payload: int):
        yield Charge(5.0)
        self.payload = payload

    def get(self, ctx):
        yield Charge(5.0)
        return self.payload

    def total(self, ctx):
        return self.count


def _twin_main(ctx, plan: Plan):
    boxes = []
    for home in plan.homes:
        boxes.append((yield New(TwinBox, on_node=home)))
    wrong = 0
    where = list(plan.homes)
    last_put = [-1] * OBJECTS
    for kind, index, arg in plan.ops:
        box = boxes[index]
        if kind == "invoke":
            yield Invoke(box, "bump")
        elif kind == "put":
            yield Invoke(box, "put", arg, arg_bytes=PAYLOAD_BYTES)
            last_put[index] = arg
        elif kind == "get":
            got = yield Invoke(box, "get", result_bytes=PAYLOAD_BYTES)
            wrong += got != last_put[index]
        elif kind == "move":
            yield MoveTo(box, arg)
            where[index] = arg
        else:
            wrong += (yield Locate(box)) != where[index]
    totals = []
    for box in boxes:
        totals.append((yield Invoke(box, "total")))
    return totals, wrong


def run_twin(plan: Plan):
    """Replay one pass on a simulated two-node cluster."""
    return AmberProgram(ClusterConfig(nodes=NODES)).run(_twin_main, plan)


def twin_wrong(plan: Plan, result) -> int:
    """Wrong outcomes of the twin: bad get/locate results, plus totals
    that differ from the plan's bump counts for one pass."""
    totals, wrong = result.value
    expected = [0] * OBJECTS
    for kind, index, _ in plan.ops:
        expected[index] += kind == "invoke"
    return wrong + sum(got != want for got, want in zip(totals, expected))
