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
from typing import List, Optional, Sequence, Tuple

from repro.analyze.elide.diagnostics import diagnose
from repro.analyze.elide.fixtures import FIXTURES
from repro.analyze.elide.model import ElideModel, classify_sources
from repro.analyze.flow.scenario import collect_sources
from repro.suite import Outcome, Report, guarded

#: What ``repro elide`` analyzes when no paths are given.
DEFAULT_PATHS = ("src/repro/apps", "examples")


def single_thread_owners(model: ElideModel) -> List[Tuple[str, str]]:
    """Sorted ``(owner, lock_cls)`` pairs of single-thread lock sites."""
    return sorted({(site.owner, site.cls) for site in model.lock_sites
                   if site.elidable})


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def _analysis_json(corpus: Sequence[Tuple[str, str]]) -> str:
    """Canonical JSON of one corpus's classification and findings."""
    model = classify_sources(corpus)
    return json.dumps(
        {"classification": model.as_dict(),
         "findings": [f.as_dict() for f in diagnose(model, corpus)]},
        sort_keys=True, separators=(",", ":"))


def _outcome_deterministic(
        sources: Sequence[Tuple[str, str]]) -> Outcome:
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
    return Outcome("deterministic-analysis", ok, details=details)


def _outcome_fixture_catalog() -> Outcome:
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
    return Outcome("fixture-catalog", ok, details=details)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_elide_scenarios(paths: Optional[Sequence[str]] = None
                        ) -> Report:
    """Classify ``paths`` and run the static suite."""
    used_paths = [str(p) for p in (paths or DEFAULT_PATHS)]
    sources = collect_sources(used_paths)
    emodel = classify_sources(sources)
    findings = diagnose(emodel, sources)
    outcomes = [
        guarded("deterministic-analysis",
                lambda: _outcome_deterministic(sources)),
        guarded("fixture-catalog", _outcome_fixture_catalog),
    ]
    owners = [f"{owner}/{cls}"
              for owner, cls in single_thread_owners(emodel)]
    header = [
        f"confined: {', '.join(emodel.confined) or '(none)'}",
        f"immutable: {', '.join(emodel.immutable) or '(none)'}",
        f"single-thread locks: {', '.join(owners) or '(none)'}",
        *(finding.render() for finding in findings),
    ]
    return Report(
        f"AmberElide over {', '.join(used_paths)}", outcomes,
        header=header,
        extra={"schema": "amberelide-report/2",
               "classification": emodel.as_dict(),
               "findings": [f.as_dict() for f in findings],
               "paths": used_paths})
