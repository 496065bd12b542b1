"""The shared report core of the self-checking suites (repro.suite)."""

from repro.suite import Outcome, Report, guarded


class TestReport:
    def test_verdict_counters_and_summary(self):
        report = Report(
            "Demo report",
            [Outcome("a", True, counters={"hits": 2, "misses": 0}),
             Outcome("b", False, details=["went wrong"],
                     counters={"hits": 3}),
             Outcome("c", True)],
            seed=7, counter_names=("hits", "misses", "idle"))
        assert not report.ok
        assert report.counters == {"hits": 5, "misses": 0, "idle": 0}
        text = report.render()
        assert text.startswith("Demo report (seed 7)\n")
        assert "[FAIL] b\n  went wrong" in text
        assert "totals: hits=5" in text
        assert text.endswith("overall: FAIL (2/3 scenarios)")
        doc = report.as_dict()
        assert doc["ok"] is False and doc["seed"] == 7
        assert "fast" not in doc
        assert [o["name"] for o in doc["outcomes"]] == ["a", "b", "c"]
        assert doc["counters"] == report.counters

    def test_all_pass(self):
        report = Report("Demo", [Outcome("a", True), Outcome("b", True)])
        assert report.ok
        assert report.counters == {}
        assert report.render().endswith("overall: PASS (2/2 scenarios)")

    def test_guarded_turns_an_exception_into_a_fail(self):
        def explode() -> Outcome:
            raise ValueError("bad input")

        outcome = guarded("x", explode)
        assert outcome.name == "x" and not outcome.ok
        assert outcome.details[0] == "crashed: ValueError: bad input"
        assert guarded("y", lambda: Outcome("y", True)).ok
