"""Crash-recovery scenarios: permanent node death with a pass/fail verdict.

The ``repro faults`` scenarios prove the *retry* story — crashed nodes
restart and in-protocol retransmission papers over the outage.  These
scenarios (``repro faults --recover``) prove the *recovery* story: the
crashed node never comes back, its objects are re-materialized from
checkpoints on their backup nodes, and its orphaned threads are
resurrected and replayed.  Each scenario runs its workload once clean
and twice under the same seeded plan, then checks:

* **correctness** — the recovered run produces the clean answer *and*
  actually recovered something (``objects_recovered >= 1``,
  ``invocations_replayed >= 1``, ``threads_lost == 0``);
* **determinism** — the two recovered runs are bit-identical (same
  final clock, result fingerprint, and counters).

``sor-recover``
    Striped Red/Black SOR; the dead node holds a live mutable grid
    stripe.  The recovered grid must equal the clean grid bit for bit.
``queens-recover``
    N-Queens over mutating per-node tallies; replay must be at-most-once
    (call counts and totals equal the clean run exactly).
``sor-unrecoverable``
    The same SOR crash with checkpointing disabled: the run must
    *terminate* with a typed :class:`~repro.errors.NodeFailure` — never
    hang — and fail identically across replays.

Used by ``python -m repro faults --recover`` and the recovery tests.
"""

from __future__ import annotations

import numpy as np

from repro.apps.sor.grid import SorProblem
from repro.errors import NodeFailure
from repro.faults.plan import FaultPlan, NodeCrash
from repro.faults.scenario import (
    COUNTER_NAMES,
    _counters,
    _fault_details,
    _fingerprint,
)
from repro.recovery.config import RecoveryConfig
from repro.recovery.workloads import run_recovery_queens, run_recovery_sor
from repro.suite import Outcome, Report, guarded, verdict

#: The node that dies in every scenario — it hosts stripe/tally 0.
CRASH_NODE = 1


def run_recovery_scenarios(seed: int = 0, fast: bool = False) -> Report:
    """Run every recovery scenario under ``seed``."""
    outcomes = [
        guarded("sor-recover", lambda: _run_sor_recover(seed, fast)),
        guarded("queens-recover", lambda: _run_queens_recover(seed, fast)),
        guarded("sor-unrecoverable",
                lambda: _run_sor_unrecoverable(seed, fast)),
    ]
    return Report("Crash-recovery report", outcomes, seed=seed,
                  fast=fast, counter_names=COUNTER_NAMES)


def _recover_plan(seed: int, clean_elapsed_us: float) -> FaultPlan:
    """The chaos mix of the fault scenarios, but the crash is permanent:
    ``restart_us=None`` means retries can never span the outage — only
    promotion and resurrection can finish the run."""
    return FaultPlan(
        seed=seed,
        drop_rate=0.05,
        dup_rate=0.01,
        delay_rate=0.02,
        reorder_rate=0.01,
        delay_min_us=50.0,
        delay_max_us=2_000.0,
        crashes=(NodeCrash(node=CRASH_NODE,
                           at_us=0.35 * clean_elapsed_us,
                           restart_us=None),),
    )


def _sor_problem(fast: bool) -> SorProblem:
    return (SorProblem(rows=16, cols=16, iterations=4) if fast
            else SorProblem(rows=24, cols=24, iterations=6))


def _recovered(counters) -> bool:
    """Did the run actually exercise the recovery machinery?"""
    return (counters["objects_recovered"] >= 1
            and counters["invocations_replayed"] >= 1
            and counters["threads_lost"] == 0
            and counters["objects_lost"] == 0)


def _run_sor_recover(seed: int, fast: bool) -> Outcome:
    problem = _sor_problem(fast)
    nodes, cpus = 3, 2

    def run(faults=None, recovery=None):
        return run_recovery_sor(problem, nodes=nodes, cpus_per_node=cpus,
                                faults=faults, recovery=recovery)

    clean = run()
    plan = _recover_plan(seed, clean.elapsed_us)
    recovery = RecoveryConfig()
    first, second = run(plan, recovery), run(plan, recovery)
    c1 = _counters(first)
    correct = bool(np.array_equal(clean.grid, first.grid)) \
        and _recovered(c1)
    fp1 = _fingerprint(first.elapsed_us, first.grid.tobytes(),
                       sorted(c1.items()))
    fp2 = _fingerprint(second.elapsed_us, second.grid.tobytes(),
                       sorted(_counters(second).items()))
    return verdict(
        "sor-recover",
        (f"striped SOR {problem.rows}x{problem.cols}, node {CRASH_NODE} "
         f"dies for good holding a live stripe"),
        correct, fp1 == fp2,
        [*_fault_details(plan, clean.elapsed_us, first.elapsed_us),
         (f"{c1['objects_recovered']} object(s) promoted, "
          f"{c1['invocations_replayed']} invocation(s) replayed; "
          + ("grid bit-identical to clean run"
             if np.array_equal(clean.grid, first.grid)
             else "grid DIVERGED from clean run"))],
        fingerprint=fp1, counters=c1)


def _run_queens_recover(seed: int, fast: bool) -> Outcome:
    n = 7 if fast else 8
    nodes, cpus = 3, 2

    def run(faults=None, recovery=None):
        return run_recovery_queens(n=n, nodes=nodes, cpus_per_node=cpus,
                                   faults=faults, recovery=recovery)

    clean = run()
    plan = _recover_plan(seed, clean.elapsed_us)
    recovery = RecoveryConfig()
    first, second = run(plan, recovery), run(plan, recovery)
    c1 = _counters(first)
    correct = (first.correct
               and first.tally_totals == clean.tally_totals
               and _recovered(c1))
    fp1 = _fingerprint(first.elapsed_us, first.solutions, first.visited,
                       first.tally_totals, sorted(c1.items()))
    fp2 = _fingerprint(second.elapsed_us, second.solutions,
                       second.visited, second.tally_totals,
                       sorted(_counters(second).items()))
    return verdict(
        "queens-recover",
        (f"{n}-Queens tallies, node {CRASH_NODE} dies for good holding "
         f"live counters (at-most-once check)"),
        correct, fp1 == fp2,
        [*_fault_details(plan, clean.elapsed_us, first.elapsed_us),
         (f"{first.solutions} solutions, "
          f"{sum(t[2] for t in first.tally_totals)} tally calls "
          f"for {first.work_units} work units, "
          f"{c1['invocations_replayed']} replayed")],
        fingerprint=fp1, counters=c1)


def _run_sor_unrecoverable(seed: int, fast: bool) -> Outcome:
    problem = _sor_problem(fast)
    nodes, cpus = 3, 2

    clean = run_recovery_sor(problem, nodes=nodes, cpus_per_node=cpus)
    plan = _recover_plan(seed, clean.elapsed_us)
    recovery = RecoveryConfig(checkpointing=False)

    def attempt():
        """Returns ``(exception type name, message)`` — the run must
        terminate with a typed failure, not hang or succeed."""
        try:
            run_recovery_sor(problem, nodes=nodes, cpus_per_node=cpus,
                             faults=plan, recovery=recovery)
        except NodeFailure as failure:
            return type(failure).__name__, str(failure)
        return "", "run unexpectedly succeeded without checkpoints"

    kind1, message1 = attempt()
    kind2, message2 = attempt()
    correct = kind1 == "NodeFailure"
    fp1 = _fingerprint(kind1, message1)
    fp2 = _fingerprint(kind2, message2)
    zeros = {name: 0 for name in COUNTER_NAMES}
    return verdict(
        "sor-unrecoverable",
        ("the same crash with checkpointing disabled: the run must fail "
         "fast with a typed NodeFailure"),
        correct, fp1 == fp2,
        [*_fault_details(plan, clean.elapsed_us, 0.0),
         f"{kind1}: {message1}" if kind1 else message1],
        fingerprint=fp1, counters=zeros)
