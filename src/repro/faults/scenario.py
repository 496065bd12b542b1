"""Fault-recovery scenarios: seeded chaos runs with a pass/fail verdict.

Each scenario runs a workload three times — once clean, twice under the
same seeded :class:`~repro.faults.plan.FaultPlan` — and checks two
properties:

* **correctness** — the faulted run produces the same answer as the
  clean one (faults may change *timing*, never *results*);
* **determinism** — the two faulted runs are bit-identical: same final
  simulated clock, same result fingerprint, same fault counters.

Three scenarios cover the recovery paths:

``sor``
    Red/Black SOR under message loss, duplication, delay, and a mid-run
    crash-and-restart of one node.  Exercises retransmission and the
    dispatch freeze/thaw.
``queens``
    The N-Queens work pool under the same fault mix — many small
    invocations, so drops land on protocol messages of every kind.
``mobility``
    A mobile object leaves a stale forwarding hint pointing at a node
    that then crashes for good.  A client following the hint must give
    up on the dead node and recover via the object's home node
    (``home_fallbacks``).

Used by ``python -m repro faults`` and the fault test-suite.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

from repro.faults.plan import FaultPlan, NodeCrash
from repro.suite import Outcome, Report, guarded, verdict

#: Counters reported per scenario (all live in the run's MetricsRegistry).
COUNTER_NAMES = (
    "faults_injected",
    "faults_dropped",
    "faults_duplicated",
    "faults_delayed",
    "faults_crash_drops",
    "faults_partition_drops",
    "retries",
    "send_give_ups",
    "location_broadcasts",
    "crashes",
    "recoveries",
    "hints_repaired",
    "home_fallbacks",
    "home_probes",
    # Crash-recovery counters (repro.recovery); zero unless a
    # RecoveryConfig is attached to the run.
    "heartbeats_sent",
    "node_suspected",
    "node_confirmed_dead",
    "node_rejoined",
    "checkpoints_shipped",
    "checkpoints_lost",
    "objects_recovered",
    "objects_lost",
    "threads_lost",
    "invocations_replayed",
    "invocations_suppressed",
)


def run_fault_scenarios(seed: int = 0, fast: bool = False) -> Report:
    """Run every scenario under ``seed`` and collect the verdicts."""
    outcomes = [
        guarded("sor", lambda: _run_sor(seed, fast)),
        guarded("queens", lambda: _run_queens(seed, fast)),
        guarded("mobility", lambda: _run_mobility(seed)),
    ]
    return Report("Fault injection & recovery report", outcomes,
                  seed=seed, fast=fast, counter_names=COUNTER_NAMES)


# ----------------------------------------------------------------------
# Scenario construction
# ----------------------------------------------------------------------


def _chaos_plan(seed: int, clean_elapsed_us: float,
                crash_node: int) -> FaultPlan:
    """The standard fault mix scaled to a workload's clean duration:
    5% loss, light duplication/delay/reorder, and one crash at 35% of
    the run with a restart short enough for in-protocol retries to span
    the outage (the default give-up budget is ~700 ms simulated)."""
    crash_at = 0.35 * clean_elapsed_us
    outage = min(0.25 * clean_elapsed_us, 200_000.0)
    return FaultPlan(
        seed=seed,
        drop_rate=0.05,
        dup_rate=0.01,
        delay_rate=0.02,
        reorder_rate=0.01,
        delay_min_us=50.0,
        delay_max_us=2_000.0,
        crashes=(NodeCrash(node=crash_node, at_us=crash_at,
                           restart_us=crash_at + outage),),
    )


def _counters(result) -> Dict[str, int]:
    metrics = result.stats.metrics
    return {name: metrics.counter(name).value for name in COUNTER_NAMES}


def _fault_details(plan: FaultPlan, clean_elapsed_us: float,
                   faulted_elapsed_us: float) -> List[str]:
    """The plan and the clean->faulted simulated time, for the report."""
    slowdown = faulted_elapsed_us / max(clean_elapsed_us, 1e-9)
    return [f"plan: {plan.describe()}",
            f"clean {clean_elapsed_us / 1000:.1f} ms -> faulted "
            f"{faulted_elapsed_us / 1000:.1f} ms ({slowdown:.2f}x)"]


def _fingerprint(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def _run_sor(seed: int, fast: bool) -> Outcome:
    import numpy as np

    from repro.apps.sor import SorProblem, run_amber_sor

    problem = (SorProblem(rows=10, cols=36, iterations=5) if fast
               else SorProblem(rows=16, cols=48, iterations=8))
    nodes, cpus = 2, 2

    def run(faults=None):
        return run_amber_sor(problem, nodes=nodes, cpus_per_node=cpus,
                             collect_grid=True, faults=faults)

    clean = run()
    plan = _chaos_plan(seed, clean.elapsed_us, crash_node=1)
    first, second = run(plan), run(plan)
    correct = bool(np.array_equal(clean.grid, first.grid))
    fp1 = _fingerprint(first.elapsed_us, first.grid.tobytes(),
                       sorted(_counters(first).items()))
    fp2 = _fingerprint(second.elapsed_us, second.grid.tobytes(),
                       sorted(_counters(second).items()))
    return verdict(
        "sor",
        (f"Red/Black SOR {problem.rows}x{problem.cols}, "
         f"{problem.iterations} iterations on {nodes}Nx{cpus}P"),
        correct, fp1 == fp2,
        [*_fault_details(plan, clean.elapsed_us, first.elapsed_us),
         "grid bit-identical to clean run" if correct
         else "grid DIVERGED from clean run"],
        fingerprint=fp1, counters=_counters(first))


def _run_queens(seed: int, fast: bool) -> Outcome:
    from repro.apps.queens import KNOWN_SOLUTIONS, run_amber_queens

    n = 7 if fast else 8
    nodes, cpus = 4, 2

    def run(faults=None):
        return run_amber_queens(n=n, nodes=nodes, cpus_per_node=cpus,
                                faults=faults)

    clean = run()
    plan = _chaos_plan(seed, clean.elapsed_us, crash_node=1)
    first, second = run(plan), run(plan)
    correct = (first.solutions == KNOWN_SOLUTIONS[n]
               and clean.solutions == KNOWN_SOLUTIONS[n])
    fp1 = _fingerprint(first.elapsed_us, first.solutions,
                       first.nodes_visited, sorted(_counters(first).items()))
    fp2 = _fingerprint(second.elapsed_us, second.solutions,
                       second.nodes_visited,
                       sorted(_counters(second).items()))
    return verdict(
        "queens", f"{n}-Queens work pool on {nodes}Nx{cpus}P",
        correct, fp1 == fp2,
        [*_fault_details(plan, clean.elapsed_us, first.elapsed_us),
         f"{first.solutions} solutions (expected {KNOWN_SOLUTIONS[n]})"],
        fingerprint=fp1, counters=_counters(first))


def _run_mobility(seed: int) -> Outcome:
    plan = FaultPlan(
        seed=seed,
        drop_rate=0.02,
        # A short budget keeps the scenario quick: ~127 ms before a
        # sender declares the dead node unreachable.
        rto_us=1_000.0,
        rto_cap_us=32_000.0,
        max_attempts=8,
        # Node 2 dies for good after the token has already moved away,
        # stranding the stale forwarding hints that point at it.
        crashes=(NodeCrash(node=2, at_us=150_000.0, restart_us=None),),
    )

    clean_value, _, clean_counters = _mobility_run(None)
    v1, w1, c1 = _mobility_run(plan)
    v2, w2, c2 = _mobility_run(plan)
    correct = (v1 == clean_value and w1 == 0
               and c1["home_fallbacks"] >= 1)
    fp1 = _fingerprint(v1, w1, sorted(c1.items()))
    fp2 = _fingerprint(v2, w2, sorted(c2.items()))
    faulted_elapsed_us = c1.pop("_elapsed_us")
    return verdict(
        "mobility",
        ("stale hint to a permanently dead node; client recovers via "
         "the home node"),
        correct, fp1 == fp2,
        [*_fault_details(plan, clean_counters["_elapsed_us"],
                         faulted_elapsed_us),
         (f"invoke answered {v1} from node {w1} with "
          f"{c1['home_fallbacks']} home fallback(s)")],
        fingerprint=fp1, counters=c1)


def _mobility_run(faults) -> Tuple[int, int, Dict[str, int]]:
    """One run of the mobility scenario; returns (invoke result, node
    that answered, counters + ``_elapsed_us``)."""
    from repro.sim import (
        AmberProgram,
        ClusterConfig,
        Fork,
        Invoke,
        Join,
        Locate,
        MoveTo,
        New,
        SimObject,
        Sleep,
    )

    class Token(SimObject):
        SIZE_BYTES = 128

        def __init__(self, value=41):
            self.value = value

        def poke(self, ctx):
            if False:
                yield None
            return self.value + 1, ctx.node

    class Prober(SimObject):
        SIZE_BYTES = 128

        def __init__(self, token):
            self._token = token

        def run(self, ctx, sleep_us):
            # Locate caches a forwarding hint here via path compression.
            yield Locate(self._token)
            yield Sleep(sleep_us)
            # By now the token moved home and its last host is dead:
            # the cached hint is a trap.
            value, node = yield Invoke(self._token, "poke")
            return value, node

    def main(ctx):
        token = yield New(Token)            # home: node 0
        yield MoveTo(token, 2)
        prober = yield New(Prober, token)
        yield MoveTo(prober, 1)
        thread = yield Fork(prober, "run", 300_000.0)
        yield Sleep(50_000.0)
        yield MoveTo(token, 0)              # back home; hint at node 1
        return (yield Join(thread))         # now points at a dead end

    program = AmberProgram(ClusterConfig(nodes=3, cpus_per_node=2),
                           faults=faults)
    result = program.run(main)
    value, where = result.value
    counters = {name: result.metrics.counter(name).value
                for name in COUNTER_NAMES}
    counters["_elapsed_us"] = result.elapsed_us
    return value, where, counters
