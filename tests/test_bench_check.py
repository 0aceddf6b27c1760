"""Regression tests for the bench baseline gate (``repro bench --check``).

A missing or unparseable committed baseline must fail the check loudly
(non-zero exit, actionable message) instead of raising a traceback —
the CI smoke job depends on that exit code.
"""

from __future__ import annotations

import json

import repro.__main__ as cli
from repro.bench import check_baseline

REPORT = {
    "metrics": {
        "trace_generation": {"ips": 100, "repeats": 1},
        "load_trace": {"ips": 100, "repeats": 1},
        "simulate": {"ips": 100, "repeats": 1},
    },
}


class TestCheckBaseline:
    def test_missing_baseline_is_a_clear_failure(self, tmp_path):
        failures = check_baseline(
            REPORT, baseline_path=tmp_path / "absent.json"
        )
        assert len(failures) == 1
        assert "missing or unreadable" in failures[0]
        assert "repro bench --out" in failures[0]

    def test_corrupt_baseline_is_a_clear_failure(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("{not json")
        failures = check_baseline(REPORT, baseline_path=path)
        assert len(failures) == 1
        assert "not valid JSON" in failures[0]

    def test_non_object_baseline_is_a_clear_failure(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        failures = check_baseline(REPORT, baseline_path=path)
        assert len(failures) == 1
        assert "not a benchmark report" in failures[0]

    def test_disjoint_baseline_is_a_failure(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"metrics": {"foo": {"ips": 1}}}))
        failures = check_baseline(REPORT, baseline_path=path)
        assert failures and "no metrics" in failures[0]

    def test_matching_baseline_passes(self, tmp_path):
        path = tmp_path / "same.json"
        path.write_text(json.dumps(REPORT))
        assert check_baseline(REPORT, baseline_path=path) == []

    def test_new_metric_warns_instead_of_failing(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({
            "metrics": {
                "trace_generation": {"ips": 100},
                "load_trace": {"ips": 100},
            },
        }))
        warnings: list[str] = []
        assert check_baseline(
            REPORT, baseline_path=path, warnings=warnings
        ) == []
        assert len(warnings) == 1
        assert "simulate" in warnings[0]


class TestBenchCheckCli:
    def test_check_exits_nonzero_when_baseline_missing(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.bench as bench

        monkeypatch.setattr(bench, "run_bench", lambda quick=False: {
            "mode": "quick", "workload": "ssearch34",
            "metrics": dict(REPORT["metrics"]),
            "speedup_vs_reference": {},
        })
        monkeypatch.setattr(
            bench, "COMMITTED_BASELINE", tmp_path / "absent.json"
        )
        assert cli.main(["bench", "--quick", "--check"]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.err
        assert "missing or unreadable" in captured.err

    def test_check_passes_against_a_matching_baseline(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.bench as bench

        report = {
            "mode": "quick", "workload": "ssearch34",
            "metrics": dict(REPORT["metrics"]),
            "speedup_vs_reference": {},
        }
        baseline = tmp_path / "BENCH_core.json"
        baseline.write_text(json.dumps(report))
        monkeypatch.setattr(bench, "run_bench", lambda quick=False: report)
        monkeypatch.setattr(bench, "COMMITTED_BASELINE", baseline)
        assert cli.main(["bench", "--quick", "--check"]) == 0
        assert "no regression" in capsys.readouterr().out


class TestBenchOutKeepsSections:
    """``repro bench --out FILE`` rewrites only what the run measured."""

    def test_core_run_keeps_recorded_cluster_section(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.bench as bench

        out = tmp_path / "BENCH_core.json"
        out.write_text(json.dumps({
            "mode": "full", "metrics": {"simulate": {"ips": 1}},
            "cluster": {"cold_start_speedup": 4.0},
        }))
        monkeypatch.setattr(bench, "run_bench", lambda quick=False: {
            "mode": "quick", "workload": "ssearch34",
            "metrics": dict(REPORT["metrics"]),
            "speedup_vs_reference": {"simulate": 2.0},
        })
        assert cli.main(["bench", "--quick", "--out", str(out)]) == 0
        written = json.loads(out.read_text())
        assert written["cluster"] == {"cold_start_speedup": 4.0}
        assert written["metrics"] == REPORT["metrics"]
        assert written["mode"] == "quick"

    def test_cluster_only_run_keeps_core_sections(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.bench as bench

        recorded = {
            "mode": "full", "workload": "ssearch34",
            "metrics": dict(REPORT["metrics"]),
            "reference_ips": {"simulate": 50},
            "speedup_vs_reference": {"simulate": 2.0},
            "cluster": {"cold_start_speedup": 4.0},
        }
        out = tmp_path / "BENCH_core.json"
        out.write_text(json.dumps(recorded))
        monkeypatch.setattr(
            bench, "bench_cluster", lambda: {"cold_start_speedup": 5.0}
        )
        monkeypatch.setattr(bench, "format_cluster", lambda cluster: "")
        assert cli.main(["bench", "--cluster-only", "--out", str(out)]) == 0
        written = json.loads(out.read_text())
        assert written == dict(recorded, cluster={"cold_start_speedup": 5.0})
