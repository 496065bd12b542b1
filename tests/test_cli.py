"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import main


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "remote invoke/return" in out

    def test_figure1(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "master object" in out

    def test_figure3_fast(self, capsys):
        assert main(["figure3", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "(X)" in out

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure9"])

    def test_requires_artifact(self):
        with pytest.raises(SystemExit):
            main([])

    def test_artifact_metrics_json(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        assert main(["table1", "--metrics-json", str(path)]) == 0
        metrics = json.loads(path.read_text())
        histograms = metrics["table1"]["histograms"]
        assert histograms  # at least one latency histogram
        for summary in histograms.values():
            for quantile in ("p50", "p90", "p99"):
                assert quantile in summary


class TestTraceProfileCli:
    def test_profile_prints_time_attribution(self, capsys):
        assert main(["profile", "queens", "--fast"]) == 0
        out = capsys.readouterr().out
        for token in ("compute", "migration", "queue", "lock-wait",
                      "critical path:", "Operation metrics"):
            assert token in out

    def test_trace_writes_chrome_trace_json(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        assert main(["trace", "queens", "--fast",
                     "--out", str(trace_path),
                     "--metrics-json", str(metrics_path)]) == 0
        document = json.loads(trace_path.read_text())
        events = document["traceEvents"]
        assert events
        assert any(e["ph"] == "X" for e in events)
        assert any(e["ph"] == "M" for e in events)
        metrics = json.loads(metrics_path.read_text())
        assert "p99" in metrics["queens"]["histograms"]["invoke_remote_us"]

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["trace", "nosuch"])
        with pytest.raises(SystemExit):
            main(["profile"])


class TestSuiteCli:
    @pytest.mark.parametrize("argv", [
        ["elide"],
        ["analyze", "--fast"],
        ["flow", "--fast"],
        ["faults", "--fast"],
    ])
    def test_suite_json_shape(self, argv, capsys, tmp_path):
        path = tmp_path / "report.json"
        assert main(argv + ["--json", str(path)]) == 0
        report = json.loads(path.read_text())
        assert report["ok"] is True
        assert isinstance(report["counters"], dict)
        assert report["outcomes"]
        for outcome in report["outcomes"]:
            assert isinstance(outcome["name"], str)
            assert outcome["ok"] is True
            assert isinstance(outcome["details"], list)
        out = capsys.readouterr().out
        passed = len(report["outcomes"])
        assert f"overall: PASS ({passed}/{passed} scenarios)" in out

    def test_check_fixture_rejects_metrics_json(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        assert main(["check", "--fixture", "hidden-race",
                     "--metrics-json", str(path)]) == 2
        assert "--metrics-json" in capsys.readouterr().err
        assert not path.exists()
