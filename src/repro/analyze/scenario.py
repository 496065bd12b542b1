"""Self-checking AmberSan scenarios (``repro analyze``).

Each scenario runs a fixture from :mod:`repro.analyze.fixtures` (or a
bundled application) under the sanitizer and checks the verdict the
fixture was built to produce: the races and misuse are *found*, the
correct programs stay *clean*, the findings are *deterministic* across
repeat runs and seeds, and sanitizing *changes nothing* about the
simulated execution.
"""

from __future__ import annotations

from typing import Any, Callable, List, Set, cast

from repro.analyze.fixtures import (
    run_immutable_write,
    run_lock_inversion,
    run_nonresident_touch,
    run_racy_counter,
    run_sync_zoo,
)
from repro.analyze.runtime import sanitize_runs
from repro.analyze.sanitizer import SanitizerReport
from repro.suite import Outcome, Report, guarded, verdict


def run_analysis_scenarios(seed: int = 0, fast: bool = False) -> Report:
    """Run every scenario under ``seed`` and collect the verdicts."""
    outcomes = [
        guarded("racy-counter", lambda: _expect_findings(
            "racy-counter",
            "two threads bump an unlocked shared counter",
            lambda s: run_racy_counter(seed=s),
            rules={"AMBSAN-RACE"}, seed=seed)),
        guarded("locked-counter", lambda: _expect_clean(
            "locked-counter",
            "the same counter behind a Lock",
            lambda s: run_racy_counter(seed=s, locked=True), seed=seed)),
        guarded("immutable-write", lambda: _expect_findings(
            "immutable-write",
            "write to an immutable-marked object after replication",
            lambda s: run_immutable_write(seed=s),
            rules={"AMBSAN-IMMUT"}, seed=seed)),
        guarded("non-resident-touch", lambda: _expect_findings(
            "non-resident-touch",
            "direct read of state the thread migrated away from",
            lambda s: run_nonresident_touch(seed=s),
            rules={"AMBSAN-RESIDENT"}, seed=seed)),
        guarded("lock-inversion", lambda: _expect_findings(
            "lock-inversion",
            "A->B and B->A acquisition orders on a run that did "
            "not deadlock",
            lambda s: run_lock_inversion(seed=s),
            rules={"AMBSAN-ORDER"}, seed=seed)),
        guarded("sync-zoo", lambda: _expect_clean(
            "sync-zoo",
            "barrier epochs, monitor sections, and a condvar "
            "handoff used correctly",
            lambda s: run_sync_zoo(seed=s), seed=seed)),
        guarded("timing-neutral", lambda: _timing_neutral(seed)),
    ]
    if not fast:
        outcomes.append(guarded("apps-clean", lambda: _apps_clean(seed)))
    return Report("AmberSan analysis report", outcomes, seed=seed,
                  fast=fast)


# ----------------------------------------------------------------------
# Scenario construction
# ----------------------------------------------------------------------


def _report_of(result: Any) -> SanitizerReport:
    return cast(SanitizerReport, result.cluster.sanitizer.report())


def _simulated(elapsed_us: float) -> str:
    return f"simulated: {elapsed_us:.1f} us"


def _expect_findings(name: str, description: str,
                     fixture: Callable[[int], Any],
                     rules: Set[str], seed: int) -> Outcome:
    """The fixture must produce at least one finding of each expected
    rule, no findings of other rules, and identical signatures on a
    repeat run and on neighbouring seeds."""
    result = fixture(seed)
    report = _report_of(result)
    seen_rules = {f.rule for f in report.findings}
    signatures = report.signatures()
    correct = rules <= seen_rules and seen_rules <= rules
    details = [f"expected: {' + '.join(sorted(rules))}",
               _simulated(result.elapsed_us)]
    if not correct:
        details.append(f"expected rules {sorted(rules)}, "
                       f"saw {sorted(seen_rules)}")
    deterministic = True
    for other_seed in (seed, seed + 1, seed + 2):
        again = _report_of(fixture(other_seed)).signatures()
        if again != signatures:
            deterministic = False
            details.append(f"signatures diverge at seed {other_seed}")
            break
    return verdict(name, description, correct, deterministic, details,
                   signatures=signatures)


def _expect_clean(name: str, description: str,
                  fixture: Callable[[int], Any],
                  seed: int) -> Outcome:
    result = fixture(seed)
    report = _report_of(result)
    details = ["expected: clean", _simulated(result.elapsed_us)]
    if not report.ok:
        details.append(report.render())
    return verdict(name, description, report.ok, True, details,
                   signatures=report.signatures())


def _timing_neutral(seed: int) -> Outcome:
    """Sanitizing must not move a single simulated timestamp or change
    the program's result."""
    plain = run_racy_counter(seed=seed, sanitize=False)
    sanitized = run_racy_counter(seed=seed, sanitize=True)
    correct = (plain.elapsed_us == sanitized.elapsed_us
               and plain.value == sanitized.value)
    details = ["expected: bit-identical run",
               _simulated(sanitized.elapsed_us)]
    if not correct:
        details.append(
            f"elapsed {plain.elapsed_us} vs {sanitized.elapsed_us}, "
            f"value {plain.value} vs {sanitized.value}")
    return verdict("timing-neutral",
                   "identical elapsed time and result with and without "
                   "the sanitizer", correct, True, details)


def _apps_clean(seed: int) -> Outcome:
    """Every bundled application must run sanitizer-clean."""
    from repro.apps.matmul import run_matmul
    from repro.apps.queens import run_amber_queens
    from repro.apps.sor.amber_sor import run_amber_sor
    from repro.apps.sor.grid import SorProblem

    dirty: List[str] = []
    elapsed = 0.0
    jobs = [
        ("sor", lambda: run_amber_sor(
            SorProblem(rows=24, cols=16, iterations=4),
            nodes=2, cpus_per_node=2)),
        ("queens", lambda: run_amber_queens(
            n=6, nodes=2, cpus_per_node=2)),
        ("matmul", lambda: run_matmul(
            m=24, k=24, n=24, nodes=2, cpus_per_node=2)),
    ]
    for name, job in jobs:
        with sanitize_runs() as sanitizers:
            outcome = job()
        elapsed += getattr(outcome, "elapsed_us", 0.0)
        for sanitizer in sanitizers:
            report = sanitizer.report()
            if not report.ok:
                dirty.append(f"{name}: {report.render()}")
    return verdict("apps-clean",
                   "bundled sor/queens/matmul run sanitizer-clean",
                   not dirty, True,
                   ["expected: clean", _simulated(elapsed), *dirty])
