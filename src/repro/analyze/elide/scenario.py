"""The ``repro elide`` suite.

Two static self-checks guard the advisory AMB301-AMB304 pass:

* **deterministic-analysis** — every fixture corpus and the analyzed
  paths are classified twice; the sorted classification and the
  findings must serialize byte-identically;
* **fixture-catalog** — the classification and the AMB3xx findings
  match each catalog entry exactly (including ``# repro: noqa[...]``
  suppression).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analyze.elide.diagnostics import diagnose
from repro.analyze.elide.fixtures import FIXTURES
from repro.analyze.elide.model import ElideModel, classify_sources
from repro.analyze.flow.scenario import collect_sources
from repro.analyze.lint import LintFinding

#: What ``repro elide`` analyzes when no paths are given.
DEFAULT_PATHS = ("src/repro/apps", "examples")


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


@dataclass
class ElideOutcome:
    """One scenario's verdict."""

    name: str
    ok: bool
    details: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "ok": self.ok,
                "details": list(self.details)}

    def render(self) -> str:
        mark = "ok " if self.ok else "FAIL"
        body = "".join(f"\n      {line}" for line in self.details)
        return f"  [{mark}] {self.name}{body}"


def findings_payload(findings: Sequence[LintFinding]
                     ) -> List[Dict[str, Any]]:
    return [{"path": f.path, "line": f.line, "rule": f.rule,
             "message": f.message} for f in findings]


def single_thread_owners(model: ElideModel) -> List[Tuple[str, str]]:
    """Sorted ``(owner, lock_cls)`` pairs of single-thread lock sites."""
    return sorted({(site.owner, site.cls) for site in model.lock_sites
                   if site.elidable})


@dataclass
class ElideReport:
    """Everything ``repro elide`` produced in one run."""

    outcomes: List[ElideOutcome]
    model: ElideModel
    findings: List[LintFinding]
    paths: List[str]

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": "amberelide-report/2",
            "ok": self.ok,
            "paths": list(self.paths),
            "outcomes": [o.as_dict() for o in self.outcomes],
            "classification": self.model.as_dict(),
            "findings": findings_payload(self.findings),
        }

    def render(self) -> str:
        lines = [f"AmberElide over {', '.join(self.paths)}:"]
        lines.append(f"  confined: "
                     f"{', '.join(self.model.confined) or '(none)'}")
        lines.append(f"  immutable: "
                     f"{', '.join(self.model.immutable) or '(none)'}")
        owners = [f"{owner}/{cls}"
                  for owner, cls in single_thread_owners(self.model)]
        lines.append(f"  single-thread locks: "
                     f"{', '.join(owners) or '(none)'}")
        for finding in self.findings:
            lines.append(f"  {finding.path}:{finding.line} "
                         f"{finding.rule} {finding.message}")
        lines.append("scenarios:")
        for outcome in self.outcomes:
            lines.append(outcome.render())
        passed = sum(1 for o in self.outcomes if o.ok)
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(f"overall: {verdict} "
                     f"({passed}/{len(self.outcomes)} scenarios)")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def _analysis_json(corpus: Sequence[Tuple[str, str]]) -> str:
    """Canonical JSON of one corpus's classification and findings."""
    model = classify_sources(corpus)
    return json.dumps(
        {"classification": model.as_dict(),
         "findings": findings_payload(diagnose(model, corpus))},
        sort_keys=True, separators=(",", ":"))


def _outcome_deterministic(
        sources: Sequence[Tuple[str, str]]) -> ElideOutcome:
    """Scan everything twice; the results must be byte-identical."""
    corpora: List[Tuple[str, List[Tuple[str, str]]]] = [
        (fx.name, fx.sources()) for fx in FIXTURES.values()]
    corpora.append(("analyzed-paths", list(sources)))
    details: List[str] = []
    ok = True
    for name, corpus in corpora:
        if _analysis_json(corpus) != _analysis_json(corpus):
            ok = False
            details.append(f"{name}: rerun analysis differs")
    details.append(f"{len(corpora)} corpora scanned twice, "
                   f"byte-identical classification and findings")
    return ElideOutcome("deterministic-analysis", ok, details)


def _outcome_fixture_catalog() -> ElideOutcome:
    """Classification and AMB3xx findings match the catalog exactly."""
    details: List[str] = []
    ok = True
    for fx in FIXTURES.values():
        emodel = classify_sources(fx.sources())
        findings = diagnose(emodel, fx.sources())
        got_rules = tuple(sorted(f.rule for f in findings))
        checks = [
            ("rules", got_rules, tuple(sorted(fx.expected_rules))),
            ("confined", tuple(sorted(emodel.confined)),
             tuple(sorted(fx.confined))),
            ("immutable", tuple(sorted(emodel.immutable)),
             tuple(sorted(fx.immutable))),
            ("single-thread-locks", tuple(single_thread_owners(emodel)),
             tuple(sorted(fx.elidable_owners))),
        ]
        bad = [f"{what}: got {got!r}, want {want!r}"
               for what, got, want in checks if got != want]
        if bad:
            ok = False
            details.append(f"{fx.name}: " + "; ".join(bad))
        else:
            details.append(f"{fx.name}: {len(findings)} finding(s), "
                           f"classification as expected")
    return ElideOutcome("fixture-catalog", ok, details)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_elide_scenarios(paths: Optional[Sequence[str]] = None
                        ) -> ElideReport:
    """Classify ``paths`` and run the static suite."""
    used_paths = [str(p) for p in (paths or DEFAULT_PATHS)]
    sources = collect_sources(used_paths)
    emodel = classify_sources(sources)
    outcomes = [
        _outcome_deterministic(sources),
        _outcome_fixture_catalog(),
    ]
    return ElideReport(outcomes=outcomes, model=emodel,
                       findings=diagnose(emodel, sources),
                       paths=used_paths)
