"""End-to-end tests for the experiment runtime.

Covers the acceptance properties: parallel execution produces results
identical to the serial path, a warm persistent cache eliminates every
task execution, and a campaign survives workers killed mid-task.
"""

import pytest

from repro.analysis.context import ExperimentContext
from repro.analysis.stalls import fig2_report, fig2_stalls
from repro.bio.synthetic import SyntheticDatabaseConfig
from repro.runtime.engine import ExperimentRuntime
from repro.runtime.executor import KillFirstN, SerialExecutor
from repro.runtime.keys import trace_digest
from repro.uarch.config import ME1, ME2, PROC_4WAY
from repro.uarch.simulator import simulate
from repro.workloads.suite import WorkloadSuite

TINY_DATABASE = SyntheticDatabaseConfig(
    sequence_count=20, family_count=2, family_size=2, seed=9, mean_length=150.0
)


def tiny_suite() -> WorkloadSuite:
    return WorkloadSuite(database_config=TINY_DATABASE, trace_budget=3000)


@pytest.fixture(scope="module")
def shared_suite() -> WorkloadSuite:
    return tiny_suite()


class TestSerialRuntime:
    def test_matches_direct_simulation(self, shared_suite):
        trace = shared_suite.trace("blast")
        config = PROC_4WAY.with_memory(ME1)
        with ExperimentRuntime() as runtime:
            result = runtime.simulate(trace, config)
        assert result == simulate(trace, config)

    def test_duplicate_requests_execute_once(self, shared_suite):
        trace = shared_suite.trace("blast")
        config = PROC_4WAY.with_memory(ME1)
        with ExperimentRuntime() as runtime:
            first, second = runtime.simulate_many(
                [(trace, config, False), (trace, config, False)]
            )
            assert first == second
            assert runtime.metrics.counts()["simulate_executions"] == 1

    def test_ephemeral_cache_hits_within_lifetime(self, shared_suite):
        trace = shared_suite.trace("blast")
        config = PROC_4WAY.with_memory(ME1)
        with ExperimentRuntime() as runtime:
            runtime.simulate(trace, config)
            runtime.simulate(trace, config)
            counts = runtime.metrics.counts()
        assert counts["simulate_executions"] == 1
        assert counts["cache_hits"] == 1


class TestParallelRuntime:
    def test_matches_serial_results(self, shared_suite):
        trace = shared_suite.trace("ssearch34")
        configs = [PROC_4WAY.with_memory(ME1), PROC_4WAY.with_memory(ME2)]
        serial = [simulate(trace, config) for config in configs]
        with ExperimentRuntime(jobs=2) as runtime:
            parallel = runtime.simulate_many(
                [(trace, config, False) for config in configs]
            )
        assert parallel == serial

    def test_run_workloads_matches_in_process_generation(self):
        reference = tiny_suite()
        expected = reference.run("blast")
        suite = tiny_suite()
        with ExperimentRuntime(jobs=2) as runtime:
            runs = runtime.run_workloads(suite, ("blast", "fasta34"))
        assert set(runs) == {"blast", "fasta34"}
        run = runs["blast"]
        assert run.mix == expected.mix
        assert run.subjects_processed == expected.subjects_processed
        assert run.truncated == expected.truncated
        assert len(run.trace) == len(expected.trace)
        # The suite's in-process cache was filled: no regeneration.
        assert suite.cached_run("blast") is run
        assert suite.trace("blast") is run.trace


class TestPersistentCache:
    def test_warm_cache_executes_nothing(self, tmp_path, shared_suite):
        trace = shared_suite.trace("sw_vmx128")
        config = PROC_4WAY.with_memory(ME1)
        with ExperimentRuntime(cache_dir=str(tmp_path)) as runtime:
            cold = runtime.simulate(trace, config)
            assert runtime.metrics.counts()["simulate_executions"] == 1
        with ExperimentRuntime(cache_dir=str(tmp_path)) as runtime:
            warm = runtime.simulate(trace, config)
            counts = runtime.metrics.counts()
        assert warm == cold
        assert counts["simulate_executions"] == 0
        assert counts["cache_hits"] == 1

    def test_warm_trace_cache_skips_generation(self, tmp_path):
        with ExperimentRuntime(cache_dir=str(tmp_path)) as runtime:
            cold = runtime.run_workloads(tiny_suite(), ("blast",))["blast"]
            assert runtime.metrics.counts()["trace_executions"] == 1
        with ExperimentRuntime(cache_dir=str(tmp_path)) as runtime:
            warm = runtime.run_workloads(tiny_suite(), ("blast",))["blast"]
            counts = runtime.metrics.counts()
        assert counts["trace_executions"] == 0
        assert counts["cache_hits"] == 1
        assert warm.mix == cold.mix
        assert len(warm.trace) == len(cold.trace)

    def test_report_written(self, tmp_path, shared_suite):
        trace = shared_suite.trace("blast")
        with ExperimentRuntime() as runtime:
            runtime.simulate(trace, PROC_4WAY.with_memory(ME1))
            report_path = tmp_path / "run.json"
            runtime.metrics.write_report(report_path, jobs=runtime.jobs)
        import json

        report = json.loads(report_path.read_text())
        assert report["jobs"] == 1
        assert report["totals"]["simulate_executions"] == 1
        assert len(report["tasks"]) == 1
        assert report["tasks"][0]["kind"] == "simulate"


class TestFaultTolerantCampaign:
    def test_killed_workers_retry_and_results_match_serial(self):
        serial_context = ExperimentContext(suite=tiny_suite())
        expected = fig2_stalls(serial_context)

        with ExperimentRuntime(
            jobs=2, retries=2, fault_hook=KillFirstN(2)
        ) as runtime:
            context = ExperimentContext(suite=tiny_suite(), runtime=runtime)
            observed = fig2_stalls(context)
            retries = runtime.metrics.counts()["retries"]

        assert observed.histograms == expected.histograms
        assert observed.cycles == expected.cycles
        assert fig2_report(observed) == fig2_report(expected)
        assert retries >= 1


class TestContextIntegration:
    def test_bare_context_runs_on_a_serial_runtime(self):
        context = ExperimentContext()
        assert isinstance(context.runtime, ExperimentRuntime)
        assert isinstance(context.runtime.executor, SerialExecutor)
        assert context.runtime.jobs == 1

    def test_simulate_many_without_runtime(self, shared_suite):
        # A context built without a runtime argument resolves through
        # its default serial runtime, with the values of direct
        # simulator calls.
        context = ExperimentContext(suite=shared_suite)
        trace = shared_suite.trace("blast")
        config = PROC_4WAY.with_memory(ME1)
        results = context.simulate_many(
            [(trace, config), (trace, config, True)]
        )
        assert results == [
            simulate(trace, config),
            simulate(trace, config, track_occupancy=True),
        ]
        assert results[1].queue_occupancy
        assert context.simulate_trace(trace, config) == results[0]

    def test_repeat_point_is_one_execution_and_one_cache_hit(
        self, shared_suite
    ):
        context = ExperimentContext(suite=shared_suite)
        trace = shared_suite.trace("fasta34")
        config = PROC_4WAY.with_memory(ME2)
        [first] = context.simulate_many([(trace, config)])
        [second] = context.simulate_many([(trace, config)])
        counts = context.runtime.metrics.counts()
        assert counts["simulate_executions"] == 1
        assert counts["cache_hits"] == 1
        assert first == second == simulate(trace, config)

    def test_memo_keys_on_trace_content_not_identity(
        self, shared_suite, monkeypatch
    ):
        # CPython reuses a freed object's id, and budget-truncated traces
        # share a length, so an id-keyed memo hands one trace's result to
        # another.  A constant id forces that collision deterministically.
        import repro.analysis.context as context_module

        monkeypatch.setattr(
            context_module, "id", lambda obj: 0, raising=False
        )
        context = ExperimentContext(suite=shared_suite)
        config = PROC_4WAY.with_memory(ME1)
        first = shared_suite.trace("ssearch34").slice(3000)
        second = shared_suite.trace("blast").slice(3000)
        assert len(first) == len(second)
        assert context.simulate_trace(first, config) == simulate(first, config)
        assert context.simulate_trace(second, config) == simulate(
            second, config
        )
        assert context.simulate_many([(second, config)]) == [
            simulate(second, config)
        ]

    def test_prefetch_workloads_fills_suite_cache(self):
        suite = tiny_suite()
        expected = tiny_suite().run("blast")
        context = ExperimentContext(suite=suite)
        context.prefetch_workloads(("blast",))
        run = suite.cached_run("blast")
        assert run is not None
        assert run.mix == expected.mix
        assert trace_digest(run.trace) == trace_digest(expected.trace)
        assert context.runtime.metrics.counts()["trace_executions"] == 1


class TestStrictCodeLint:
    """``strict=True`` lints the package before any task runs."""

    def test_strict_runtime_lints_package_once_per_salt(self, monkeypatch):
        import repro.runtime.engine as engine_module
        import repro.verify.repolint as repolint

        calls = []
        real = repolint.lint_paths
        monkeypatch.setattr(
            repolint, "lint_paths",
            lambda *args: calls.append(args) or real(*args),
        )
        monkeypatch.setattr(engine_module, "_linted_salts", set())
        for _ in range(2):
            ExperimentRuntime(strict=True).close()
        ExperimentRuntime().close()
        assert calls == [()]

    def test_strict_runtime_raises_on_findings(self, monkeypatch):
        import repro.runtime.engine as engine_module
        import repro.verify.repolint as repolint
        from repro.verify import LintViolation, RepoLintError

        finding = LintViolation(
            "REP010", "repro/sim/mutate.py", 5, "writes `PRESETS`"
        )
        monkeypatch.setattr(repolint, "lint_paths", lambda: [finding])
        monkeypatch.setattr(engine_module, "_linted_salts", set())
        with pytest.raises(RepoLintError) as raised:
            ExperimentRuntime(strict=True)
        assert raised.value.violations == [finding]
        assert "repro/sim/mutate.py:5: REP010" in str(raised.value)
        # A failed lint is not memoized: the next strict run checks again.
        assert engine_module._linted_salts == set()
