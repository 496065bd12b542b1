"""AmberElide: static classification, determinism, and isolation.

The suite itself lives in ``repro.analyze.elide.scenario`` (``repro
elide``); these tests pin the load-bearing unit behaviors — the
fixture catalog, cross-process determinism of the classification and
findings, and that the simulator core never loads the analysis.
"""

import json
import subprocess
import sys
from pathlib import Path

from repro.analyze.elide.diagnostics import diagnose
from repro.analyze.elide.fixtures import FIXTURES
from repro.analyze.elide.model import classify_sources
from repro.analyze.elide.scenario import (run_elide_scenarios,
                                          single_thread_owners)

REPO = Path(__file__).resolve().parent.parent


def _run_fresh(script, seed="0"):
    """Run ``script`` in a fresh interpreter; return its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, cwd=str(REPO),
        env={"PYTHONPATH": str(REPO / "src"), "PYTHONHASHSEED": seed},
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestClassification:
    def test_confined_counter_lock_is_elidable(self):
        fx = FIXTURES["confined-counter"]
        model = classify_sources(fx.sources())
        assert set(model.confined) == {"Tally"}
        assert single_thread_owners(model) == [("<main>", "Lock")]

    def test_shared_pool_lock_is_not_elidable(self):
        fx = FIXTURES["shared-pool"]
        model = classify_sources(fx.sources())
        assert single_thread_owners(model) == []
        assert "JobPool" not in model.confined

    def test_immutable_table_classes(self):
        fx = FIXTURES["immutable-table"]
        model = classify_sources(fx.sources())
        assert set(model.immutable) == {"SumTable", "TableReader"}

    def test_every_fixture_matches_its_catalog_entry(self):
        for fx in FIXTURES.values():
            model = classify_sources(fx.sources())
            findings = diagnose(model, fx.sources())
            assert sorted(f.rule for f in findings) == \
                sorted(fx.expected_rules), fx.name
            assert set(model.confined) == set(fx.confined), fx.name
            assert set(model.immutable) == set(fx.immutable), fx.name
            assert single_thread_owners(model) == \
                sorted(fx.elidable_owners), fx.name

    def test_container_append_leaks_lock(self):
        sources = [("<case>", (
            "from repro.sim.sync import Lock\n"
            "def main(ctx):\n"
            "    stash = []\n"
            "    gate = yield New(Lock)\n"
            "    stash.append(gate)\n"
            "    yield Invoke(gate, 'acquire')\n"
            "    yield Invoke(gate, 'release')\n"))]
        assert single_thread_owners(classify_sources(sources)) == []


class TestDeterminism:
    def test_byte_identical_across_processes(self):
        """Two freshly started interpreters must emit the same bytes:
        no dict-order, hash-seed, or id() dependence anywhere."""
        script = (
            "import json, sys\n"
            "from repro.analyze.elide.diagnostics import diagnose\n"
            "from repro.analyze.elide.fixtures import FIXTURES\n"
            "from repro.analyze.elide.model import classify_sources\n"
            "for fx in FIXTURES.values():\n"
            "    model = classify_sources(fx.sources())\n"
            "    findings = diagnose(model, fx.sources())\n"
            "    sys.stdout.write(json.dumps(\n"
            "        {'classification': model.as_dict(),\n"
            "         'findings': [f.as_dict() for f in findings]},\n"
            "        sort_keys=True) + '\\n')\n")
        outs = [_run_fresh(script, seed) for seed in ("0", "1")]
        assert outs[0] == outs[1]
        assert outs[0].count("\n") == len(FIXTURES)


class TestCoreIsolation:
    def test_simulator_core_loads_no_elision_code(self):
        """The analysis is advisory: the kernel, the sync objects and
        the sanitizer must run without importing any of it."""
        script = (
            "import sys\n"
            "import repro.sim.kernel, repro.sim.sync\n"
            "import repro.analyze.sanitizer\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith('repro.analyze.elide')))\n")
        assert _run_fresh(script).strip() == "[]"


class TestScenarioSuite:
    def test_fast_suite_passes(self):
        report = run_elide_scenarios()
        assert report.ok, report.render()
        assert {o.name for o in report.outcomes} == {
            "deterministic-analysis", "fixture-catalog"}

    def test_report_json_shape(self):
        report = run_elide_scenarios(paths=["src/repro/apps"])
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["schema"] == "amberelide-report/2"
        assert set(payload["classification"]) == {
            "confined", "immutable", "shared", "locks"}
        assert isinstance(payload["findings"], list)
        assert all(o["ok"] for o in payload["outcomes"])
