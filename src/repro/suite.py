"""One report core for every self-checking ``repro`` suite.

``repro analyze``, ``check``, ``flow``, ``elide``, ``faults
[--recover]`` and ``chaos`` each run a list of scenarios and print one
verdict per scenario.  They all report through this module:

* :class:`Outcome` — one scenario's verdict.  Anything a suite wants
  to show beyond the shared fields goes into ``details`` lines, written
  when the outcome is built;
* :class:`Report` — the suite: derived ``ok``, summed counters, one
  JSON shape (an ``outcomes`` list) and one text rendering ending in
  ``overall: PASS|FAIL (k/n scenarios)``;
* :func:`guarded` — runs one scenario so that an exception becomes a
  FAIL outcome instead of killing the suite and losing the other
  verdicts.

Nothing in the simulator, the live runtime or the apps imports this
module; it sits on top of them.
"""

from __future__ import annotations

import traceback
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence


@dataclass
class Outcome:
    """Verdict of one scenario."""

    name: str
    ok: bool
    description: str = ""
    #: Human-readable evidence, one line each.
    details: List[str] = field(default_factory=list)
    #: Sorted, seed/time-stable finding signatures.
    signatures: List[str] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    #: Digest of the run, compared across same-seed reruns.
    fingerprint: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def render(self) -> List[str]:
        head = f"[{'PASS' if self.ok else 'FAIL'}] {self.name}"
        lines = [f"{head}: {self.description}" if self.description
                 else head]
        lines.extend(f"  {line}" for line in self.details)
        lines.extend(f"  finding: {sig}" for sig in self.signatures)
        if self.fingerprint:
            lines.append(f"  fingerprint: {self.fingerprint}")
        if self.counters:
            lines.append(f"  counters: {_nonzero(self.counters)}")
        return lines


def verdict(name: str, description: str, correct: bool,
            deterministic: bool, details: Sequence[str] = (),
            **fields: Any) -> Outcome:
    """An outcome that passes when the run was both correct (the answer
    the scenario was built to produce) and deterministic (a rerun
    agrees)."""
    return Outcome(
        name=name, ok=correct and deterministic, description=description,
        details=[f"correct: {correct}   deterministic: {deterministic}",
                 *details],
        **fields)


def guarded(name: str, fn: Callable[[], Outcome]) -> Outcome:
    """Run one scenario; one that raises is a FAIL verdict, not a dead
    suite.  The traceback goes into the outcome's details."""
    try:
        return fn()
    except Exception as error:
        return Outcome(
            name=name, ok=False,
            description="(crashed before its verdict)",
            details=[f"crashed: {type(error).__name__}: {error}",
                     *traceback.format_exc().rstrip().splitlines()])


@dataclass
class Report:
    """All outcomes of one suite run."""

    title: str
    outcomes: List[Outcome]
    seed: Optional[int] = None
    fast: Optional[bool] = None
    #: Suite-wide lines printed between the title and the outcomes.
    header: List[str] = field(default_factory=list)
    #: Suite-specific top-level JSON entries (hints, findings, ...).
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Counters listed in the totals even when every outcome has zero.
    counter_names: Sequence[str] = ()

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def counters(self) -> Dict[str, int]:
        totals = dict.fromkeys(self.counter_names, 0)
        for outcome in self.outcomes:
            for name, value in outcome.counters.items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def as_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {}
        if self.seed is not None:
            doc["seed"] = self.seed
        if self.fast is not None:
            doc["fast"] = self.fast
        doc["ok"] = self.ok
        doc["counters"] = self.counters
        doc["outcomes"] = [outcome.as_dict() for outcome in self.outcomes]
        doc.update(self.extra)
        return doc

    def render(self) -> str:
        title = (self.title if self.seed is None
                 else f"{self.title} (seed {self.seed})")
        lines = [title, "=" * len(title), *self.header]
        for outcome in self.outcomes:
            lines.append("")
            lines.extend(outcome.render())
        lines.append("")
        totals = self.counters
        if totals:
            lines.append(f"totals: {_nonzero(totals)}")
        passed = sum(1 for outcome in self.outcomes if outcome.ok)
        lines.append(f"overall: {'PASS' if self.ok else 'FAIL'} "
                     f"({passed}/{len(self.outcomes)} scenarios)")
        return "\n".join(lines)


def _nonzero(counters: Dict[str, int]) -> str:
    return ", ".join(f"{name}={value}"
                     for name, value in sorted(counters.items())
                     if value) or "(none)"
