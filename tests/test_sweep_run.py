"""Integration tests for resumable sweep execution and reports.

The core guarantees under test:

* **resume** — interrupting a sweep mid-grid (``max_points``) loses no
  completed work; the re-run executes exactly the missing points, and
  the final manifest and report are byte-identical to an uninterrupted
  run's;
* **cache identity** — sweep points store results under the same
  content-addressed digests the ad-hoc figure drivers use, so a warm
  ``simulate_many`` over the same grid executes nothing;
* **durability** — a worker killed mid-point (fault injection) does
  not corrupt the campaign: retries complete it and the manifest is
  whole.
"""

from __future__ import annotations

import json

import pytest

import repro.__main__ as cli
from repro.runtime.engine import ExperimentRuntime
from repro.runtime.executor import KillFirstN
from repro.sweep import (
    SweepManifest,
    expand_spec,
    parse_spec,
    render_report,
    report_data,
    run_sweep,
    sweep_status,
)

SPEC_DATA = {
    "sweep": {"name": "grid", "description": "test grid"},
    "axes": {
        "width": ["4-way", "8-way"],
        "memory": ["me1", "meinf"],
    },
    "workloads": {"names": ["ssearch34"]},
    "report": {"metrics": ["ipc", "cycles"]},
}


@pytest.fixture()
def spec():
    return parse_spec(SPEC_DATA)


@pytest.fixture(autouse=True)
def small_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.02")


class TestResume:
    def test_interrupt_resume_executes_only_missing_points(
        self, spec, tmp_path
    ):
        with ExperimentRuntime(cache_dir=str(tmp_path / "cache")) as runtime:
            first = run_sweep(spec, runtime, max_points=1)
            assert first.summary() == {
                "sweep": "grid",
                "spec_digest": spec.digest(),
                "points": 4,
                "executed": 1,
                "resumed": 0,
                "invalidated": 0,
                "remaining": 3,
                "complete": False,
            }
            second = run_sweep(spec, runtime)
            assert len(second.executed) == 3
            assert len(second.resumed) == 1
            assert second.complete
            # The resumed point is exactly the one the first run did.
            assert second.resumed == first.executed
            third = run_sweep(spec, runtime)
            assert third.executed == []
            assert len(third.resumed) == 4
            # Across all three runs every point simulated exactly once.
            assert runtime.metrics.counts()["sweep_executions"] == 4

    def test_warm_rerun_uses_manifest_not_cache(self, spec, tmp_path):
        cache = str(tmp_path / "cache")
        with ExperimentRuntime(cache_dir=cache) as runtime:
            run_sweep(spec, runtime)
        with ExperimentRuntime(cache_dir=cache) as runtime:
            rerun = run_sweep(spec, runtime)
            assert rerun.executed == []
            counts = runtime.metrics.counts()
            assert counts["sweep_executions"] == 0
            assert counts["simulate_executions"] == 0

    def test_stale_digest_invalidates_exactly_that_point(
        self, spec, tmp_path
    ):
        cache = str(tmp_path / "cache")
        state = tmp_path / "cache" / "sweeps"
        with ExperimentRuntime(cache_dir=cache) as runtime:
            run_sweep(spec, runtime)
        manifest = SweepManifest.open(state, spec)
        victim = expand_spec(spec)[2].point_id
        manifest.points[victim]["digest"] = "0" * 16
        manifest.save()
        with ExperimentRuntime(cache_dir=cache) as runtime:
            rerun = run_sweep(spec, runtime)
            assert rerun.invalidated == [victim]
            # Only the victim is re-resolved.  Its current digest is
            # still in the result cache, so that is a cache hit and the
            # point counts as resumed, not executed.
            assert rerun.executed == []
            assert rerun.resumed[-1] == victim
            assert len(rerun.resumed) == 4
            assert runtime.metrics.counts()["sweep_executions"] == 0

    def test_report_byte_identical_after_interrupt_resume(
        self, spec, tmp_path
    ):
        interrupted_cache = str(tmp_path / "a")
        with ExperimentRuntime(cache_dir=interrupted_cache) as runtime:
            run_sweep(spec, runtime, max_points=2)
            run_sweep(spec, runtime)
        straight_cache = str(tmp_path / "b")
        with ExperimentRuntime(cache_dir=straight_cache) as runtime:
            run_sweep(spec, runtime)
        renders = []
        manifests = []
        for cache in (interrupted_cache, straight_cache):
            state = f"{cache}/sweeps"
            renders.append(
                render_report(report_data(spec, state), "json")
            )
            manifests.append(
                SweepManifest.open(state, spec).path.read_bytes()
            )
        assert renders[0] == renders[1]
        assert manifests[0] == manifests[1]

    def test_manifest_with_engine_field_resumes_without_executing(
        self, spec, tmp_path
    ):
        """Manifests from before the single-core simulator carry an
        informational ``"engine": "lockstep"`` field.  Resume never
        keyed on it, so such a manifest still resumes every point."""
        cache = str(tmp_path / "cache")
        with ExperimentRuntime(cache_dir=cache) as runtime:
            run_sweep(spec, runtime)
        path = SweepManifest.open(f"{cache}/sweeps", spec).path
        data = json.loads(path.read_text())
        assert "engine" not in data
        data["engine"] = "lockstep"
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        with ExperimentRuntime(cache_dir=cache) as runtime:
            rerun = run_sweep(spec, runtime)
            assert rerun.executed == []
            assert rerun.invalidated == []
            assert len(rerun.resumed) == 4
            assert runtime.metrics.counts()["sweep_executions"] == 0

    def test_resume_from_engine_field_manifest_is_byte_identical(
        self, spec, tmp_path
    ):
        """Interrupt, add the old ``engine`` field, resume: the final
        manifest and report match an uninterrupted run's byte for
        byte (the rewrite drops the field)."""
        resumed_cache = str(tmp_path / "a")
        with ExperimentRuntime(cache_dir=resumed_cache) as runtime:
            run_sweep(spec, runtime, max_points=1)
            path = SweepManifest.open(f"{resumed_cache}/sweeps", spec).path
            data = json.loads(path.read_text())
            data["engine"] = "lockstep"
            path.write_text(json.dumps(data, indent=2, sort_keys=True))
            rerun = run_sweep(spec, runtime)
            assert len(rerun.executed) == 3
            assert len(rerun.resumed) == 1
        straight_cache = str(tmp_path / "b")
        with ExperimentRuntime(cache_dir=straight_cache) as runtime:
            run_sweep(spec, runtime)
        renders = []
        manifests = []
        for cache in (resumed_cache, straight_cache):
            state = f"{cache}/sweeps"
            renders.append(
                render_report(report_data(spec, state), "json")
            )
            manifests.append(
                SweepManifest.open(state, spec).path.read_bytes()
            )
        assert renders[0] == renders[1]
        assert manifests[0] == manifests[1]


class TestCacheIdentity:
    def test_sweep_results_hit_for_the_adhoc_driver_grid(
        self, spec, tmp_path
    ):
        from repro.uarch.config import ME1, MEINF, PROC_4WAY, PROC_8WAY
        from repro.workloads.suite import WorkloadSuite

        cache = str(tmp_path / "cache")
        with ExperimentRuntime(cache_dir=cache) as runtime:
            run = run_sweep(spec, runtime)
            by_id = {
                point_id: runtime.cache
                for point_id in run.executed
            }
            assert len(by_id) == 4
        # The ad-hoc construction over the same grid: every simulation
        # must resolve from the cache the sweep populated.
        with ExperimentRuntime(cache_dir=cache) as runtime:
            suite = WorkloadSuite()
            runtime.run_workloads(suite, ("ssearch34",))
            trace = suite.trace("ssearch34")
            requests = [
                (trace, width.with_memory(memory), False)
                for width in (PROC_4WAY, PROC_8WAY)
                for memory in (ME1, MEINF)
            ]
            results = runtime.simulate_many(requests)
            counts = runtime.metrics.counts()
            assert counts["simulate_executions"] == 0
            assert counts["trace_executions"] == 0
        # And the manifest metrics match the results bit-for-bit.
        manifest = SweepManifest.open(f"{cache}/sweeps", spec)
        expected = {
            ("4-way", "me1"): results[0],
            ("4-way", "meinf"): results[1],
            ("8-way", "me1"): results[2],
            ("8-way", "meinf"): results[3],
        }
        for (width, memory), result in expected.items():
            point = f"ssearch34|width={width}|memory={memory}"
            metrics = manifest.metrics(point)
            assert metrics["ipc"] == result.ipc
            assert metrics["cycles"] == result.cycles

    def test_points_a_driver_already_simulated_count_as_resumed(
        self, spec, tmp_path
    ):
        from repro.workloads.suite import WorkloadSuite

        with ExperimentRuntime(cache_dir=str(tmp_path / "cache")) as runtime:
            suite = WorkloadSuite()
            runtime.run_workloads(suite, ("ssearch34",))
            trace = suite.trace("ssearch34")
            warm = expand_spec(spec)[:2]
            runtime.simulate_many(
                [(trace, point.config, False) for point in warm]
            )
            before = runtime.metrics.counts()
            run = run_sweep(spec, runtime, suite=suite)
            after = runtime.metrics.counts()
        assert run.summary()["executed"] == 2
        assert run.summary()["resumed"] == 2
        assert run.resumed == [point.point_id for point in warm]
        assert run.complete
        # The summary agrees with what the runtime actually did.
        assert after["sweep_executions"] - before["sweep_executions"] == 2
        assert after["cache_hits"] - before["cache_hits"] == 2


class TestFaultTolerance:
    def test_killed_worker_does_not_lose_the_campaign(self, spec, tmp_path):
        runtime = ExperimentRuntime(
            jobs=2,
            cache_dir=str(tmp_path / "cache"),
            fault_hook=KillFirstN(1, "sweep"),
        )
        try:
            run = run_sweep(spec, runtime)
            assert run.complete
            assert len(run.executed) == 4
            assert runtime.metrics.counts()["retries"] >= 1
        finally:
            runtime.close()
        # Everything landed durably despite the mid-batch kill.
        manifest = SweepManifest.open(tmp_path / "cache" / "sweeps", spec)
        assert len(manifest.points) == 4


class TestReportExtraction:
    def test_incomplete_points_render_as_missing(self, spec, tmp_path):
        cache = str(tmp_path / "cache")
        with ExperimentRuntime(cache_dir=cache) as runtime:
            run_sweep(spec, runtime, max_points=1)
        data = report_data(spec, f"{cache}/sweeps")
        assert len(data["missing"]) == 3
        assert not data["complete"]
        text = render_report(data, "text")
        assert "incomplete: 3 of 4" in text
        assert "-" in text
        html = render_report(data, "html")
        assert "incomplete: 3 of 4" in html

    def test_point_metrics_carry_cpi_stack_and_traumas(
        self, spec, tmp_path
    ):
        cache = str(tmp_path / "cache")
        with ExperimentRuntime(cache_dir=cache) as runtime:
            run_sweep(spec, runtime)
        data = report_data(spec, f"{cache}/sweeps")
        assert data["complete"]
        for point in data["points"]:
            metrics = point["metrics"]
            assert set(metrics["cpi_stack"]) == {
                "base", "branch", "memory", "dependence",
                "resource", "frontend", "other",
            }
            assert metrics["cycles"] > 0
            assert 0.0 < metrics["ipc"]

    def test_status_without_traces(self, spec, tmp_path):
        cache = str(tmp_path / "cache")
        with ExperimentRuntime(cache_dir=cache) as runtime:
            run_sweep(spec, runtime, max_points=2)
        status = sweep_status(spec, f"{cache}/sweeps")
        assert status["recorded"] == 2
        assert status["missing"] == 2
        assert not status["complete"]


class TestSweepCli:
    SPEC_TOML = (
        '[sweep]\nname = "cli-grid"\ntrace_budget = 3000\n'
        '[axes]\nwidth = ["4-way", "8-way"]\n'
        '[workloads]\nnames = ["ssearch34"]\n'
    )

    def test_run_interrupt_resume_report_cycle(self, tmp_path, capsys):
        spec_path = tmp_path / "grid.toml"
        spec_path.write_text(self.SPEC_TOML)
        cache = str(tmp_path / "cache")

        assert cli.main([
            "sweep", "run", str(spec_path), "--cache-dir", cache,
            "--max-points", "1",
        ]) == 0
        assert "1 remaining" in capsys.readouterr().out
        assert cli.main([
            "sweep", "status", str(spec_path), "--cache-dir", cache,
        ]) == 1  # incomplete
        assert "1 missing" in capsys.readouterr().out

        summary_path = tmp_path / "summary.json"
        assert cli.main([
            "sweep", "run", str(spec_path), "--cache-dir", cache,
            "--summary-json", str(summary_path),
        ]) == 0
        summary = json.loads(summary_path.read_text())
        assert summary["executed"] == 1
        assert summary["resumed"] == 1
        assert summary["complete"]

        assert cli.main([
            "sweep", "status", str(spec_path), "--cache-dir", cache,
        ]) == 0
        capsys.readouterr()

        # Fully warm: the manifest satisfies everything.
        assert cli.main([
            "sweep", "run", str(spec_path), "--cache-dir", cache,
            "--summary-json", str(summary_path),
        ]) == 0
        warm = json.loads(summary_path.read_text())
        assert warm["executed"] == 0
        assert warm["resumed"] == 2
        capsys.readouterr()

        assert cli.main([
            "sweep", "report", str(spec_path), "--cache-dir", cache,
        ]) == 0
        assert "cli-grid" in capsys.readouterr().out
        html_path = tmp_path / "report.html"
        assert cli.main([
            "sweep", "report", str(spec_path), "--cache-dir", cache,
            "--format", "html", "--out", str(html_path),
        ]) == 0
        assert html_path.read_text().startswith("<!DOCTYPE html>")

    def test_invalid_spec_exits_2_with_violations(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.toml"
        spec_path.write_text(
            '[sweep]\nname = "bad"\n[axes]\nfrequency = [1, 2]\n'
        )
        assert cli.main(["sweep", "run", str(spec_path)]) == 2
        assert "frequency" in capsys.readouterr().err

    def test_status_without_state_dir_is_an_error(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        spec_path = tmp_path / "grid.toml"
        spec_path.write_text(self.SPEC_TOML)
        assert cli.main(["sweep", "status", str(spec_path)]) == 2
        assert "state-dir" in capsys.readouterr().err
