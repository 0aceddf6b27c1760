"""Unit tests for the ``python -m repro`` command-line interface."""

import pytest

import repro.__main__ as cli


class TestCli:
    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig5" in output
        assert "table3" in output

    def test_help(self, capsys):
        assert cli.main([]) == 0
        assert "python -m repro" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert cli.main(["fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_runs_static_table(self, capsys, monkeypatch):
        # table1 needs no simulation, so it is fast enough for a test.
        assert cli.main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "ssearch34" in output
        assert "completed" in output

    @pytest.mark.parametrize("value", ["abc", "nan", "inf"])
    def test_non_finite_scale_is_a_usage_error(
        self, capsys, monkeypatch, value
    ):
        monkeypatch.setenv("REPRO_SCALE", value)
        assert cli.main(["table1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: REPRO_SCALE={value!r} is not a finite number\n"
        )

    def test_trace_usage_errors(self, capsys):
        assert cli.main(["trace"]) == 2
        assert "usage" in capsys.readouterr().err
        assert cli.main(["trace", "hmmer", "x.npz"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_trace_export(self, tmp_path, capsys, monkeypatch):
        # Keep the export fast: tiny scale.
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        path = tmp_path / "blast.npz"
        assert cli.main(["trace", "blast", str(path)]) == 0
        assert path.exists()
        from repro.isa.serialize import load_trace

        trace = load_trace(path)
        assert len(trace) > 0
        trace.validate()


def experiment_body(output: str) -> str:
    """Report text without the timing/cache summary lines."""
    return "\n".join(
        line for line in output.splitlines()
        if not line.startswith("[fig2 completed")
    )


class TestParallelCli:
    def test_parallel_matches_serial_and_warm_cache_runs_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        import json

        monkeypatch.setenv("REPRO_SCALE", "0.01")
        assert cli.main(["fig2"]) == 0
        serial = experiment_body(capsys.readouterr().out)

        cache_dir = tmp_path / "cache"
        report_path = tmp_path / "cold.json"
        assert cli.main([
            "fig2", "--jobs", "2", "--cache-dir", str(cache_dir),
            "--report", str(report_path),
        ]) == 0
        cold = capsys.readouterr().out
        assert experiment_body(cold) == serial
        assert "cache:" in cold
        cold_report = json.loads(report_path.read_text())
        assert cold_report["jobs"] == 2
        assert cold_report["totals"]["simulate_executions"] > 0

        warm_path = tmp_path / "warm.json"
        assert cli.main([
            "fig2", "--jobs", "2", "--cache-dir", str(cache_dir),
            "--report", str(warm_path),
        ]) == 0
        assert experiment_body(capsys.readouterr().out) == serial
        warm_report = json.loads(warm_path.read_text())
        assert warm_report["totals"]["simulate_executions"] == 0
        assert warm_report["totals"]["trace_executions"] == 0
        assert warm_report["totals"]["cache_misses"] == 0
        assert warm_report["totals"]["cache_hits"] > 0


class TestCacheCli:
    @staticmethod
    def store_one_result(root) -> None:
        from repro.runtime.cache import ResultCache
        from repro.uarch.results import (
            BranchResult,
            CacheResult,
            SimulationResult,
        )

        ResultCache(root).store_result("ab" * 16, SimulationResult(
            trace_name="t", config_name="c", memory_name="m",
            instructions=10, cycles=20, traumas={},
            branch=BranchResult(1, 1, 1, 0),
            il1=CacheResult(1, 0), dl1=CacheResult(1, 0),
            l2=CacheResult(1, 0),
        ))

    def test_stats_and_clean(self, tmp_path, capsys):
        self.store_one_result(tmp_path)
        assert cli.main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "1 simulation result" in capsys.readouterr().out
        assert cli.main(["cache", "clean", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert cli.main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "0 simulation result" in capsys.readouterr().out

    def test_cache_dir_from_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert cli.main(["cache", "stats"]) == 0
        assert "0 simulation result" in capsys.readouterr().out

    def test_cache_without_dir_is_an_error(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert cli.main(["cache", "stats"]) == 2
        assert "cache-dir" in capsys.readouterr().err
