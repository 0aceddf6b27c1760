"""The runtime's trace-grouped simulation tasks.

Cache misses that share a trace and occupancy flag execute as
``simulate`` (or, for sweeps, ``sweep``) tasks of at most
:data:`~repro.runtime.engine.BATCH_WIDTH` configurations: the worker
loads and decodes the trace once, then runs :func:`simulate` per
configuration.  These tests pin the grouping and check that the loop
leaks no state from one configuration into the next through the shared
decode plane.
"""

from __future__ import annotations

import math

import pytest

from repro.bio.synthetic import SyntheticDatabaseConfig
from repro.isa.serialize import load_trace, save_trace
from repro.runtime.cache import ResultCache, result_to_dict
from repro.runtime.engine import BATCH_WIDTH, ExperimentRuntime
from repro.runtime.executor import SerialExecutor
from repro.runtime.keys import simulate_key
from repro.runtime.tasks import run_task
from repro.uarch.config import (
    BP_PERFECT,
    MEMORY_PRESETS,
    PROC_4WAY,
    PROC_8WAY,
    PROC_12WAY,
    PROC_16WAY,
)
from repro.uarch.simulator import simulate
from repro.workloads.suite import WorkloadSuite

#: 40 distinct configurations: four widths x five memories, with and
#: without a perfect branch predictor.
CONFIGS = [
    width.with_memory(memory).with_branch(branch)
    for branch in (PROC_4WAY.branch, BP_PERFECT)
    for width in (PROC_4WAY, PROC_8WAY, PROC_12WAY, PROC_16WAY)
    for memory in MEMORY_PRESETS
]


class RecordingExecutor(SerialExecutor):
    """Runs tasks in-process and keeps every task it was handed.

    ``inline=False`` makes the runtime spill traces to ``.trace.npz``
    files and send paths, exactly as it does for pool workers.
    """

    def __init__(self, inline: bool = True) -> None:
        self.inline = inline
        self.tasks = []

    def run_many(self, tasks):
        self.tasks.extend(tasks)
        return super().run_many(tasks)


@pytest.fixture(scope="module")
def trace():
    suite = WorkloadSuite(
        database_config=SyntheticDatabaseConfig(
            sequence_count=20, family_count=2, family_size=2, seed=9,
            mean_length=150.0,
        ),
        trace_budget=3000,
    )
    return suite.trace("ssearch34")


@pytest.fixture(scope="module")
def trace_path(trace, tmp_path_factory):
    path = tmp_path_factory.mktemp("batch") / "ssearch34.trace.npz"
    save_trace(trace, path)
    return str(path)


def fresh_result(trace_path: str, config, occupancy: bool = False) -> dict:
    """The reference: a scalar run over a freshly loaded trace."""
    return result_to_dict(
        simulate(load_trace(trace_path), config, track_occupancy=occupancy)
    )


class TestGrouping:
    @pytest.mark.parametrize("count", [2, BATCH_WIDTH, 19])
    def test_misses_over_one_trace_become_ceil_n_over_8_batches(
        self, trace, count
    ):
        executor = RecordingExecutor()
        configs = CONFIGS[:count]
        with ExperimentRuntime(executor=executor) as runtime:
            results = runtime.simulate_many(
                [(trace, config, False) for config in configs]
            )
            counts = runtime.metrics.counts()
        kinds = [task.kind for task in executor.tasks]
        assert kinds == ["simulate"] * math.ceil(count / BATCH_WIDTH)
        sizes = [len(task.payload[1]) for task in executor.tasks]
        assert sizes == [
            min(BATCH_WIDTH, count - start)
            for start in range(0, count, BATCH_WIDTH)
        ]
        # Per-point metrics: one executed record per configuration.
        assert counts["simulate_executions"] == count
        assert results == [simulate(trace, config) for config in configs]

    def test_single_miss_is_a_simulate_task(self, trace):
        executor = RecordingExecutor()
        with ExperimentRuntime(executor=executor) as runtime:
            runtime.simulate(trace, CONFIGS[0])
        assert [task.kind for task in executor.tasks] == ["simulate"]
        assert executor.tasks[0].payload[1:] == ((CONFIGS[0],), False)

    def test_occupancy_requests_over_one_trace_form_one_simulate_task(
        self, trace
    ):
        executor = RecordingExecutor()
        requests = [(trace, config, False) for config in CONFIGS[:3]]
        requests[1:1] = [(trace, CONFIGS[5], True), (trace, CONFIGS[6], True)]
        with ExperimentRuntime(executor=executor) as runtime:
            results = runtime.simulate_many(requests)
        assert [
            (task.kind, len(task.payload[1]), task.payload[2])
            for task in executor.tasks
        ] == [("simulate", 3, False), ("simulate", 2, True)]
        for (_, config, occupancy), result in zip(requests, results):
            assert result == simulate(
                trace, config, track_occupancy=occupancy
            )

    def test_cache_hits_leave_only_misses_to_group(self, trace):
        executor = RecordingExecutor()
        with ExperimentRuntime(executor=executor) as runtime:
            runtime.simulate_many(
                [(trace, config, False) for config in CONFIGS[:5]]
            )
            executor.tasks.clear()
            runtime.simulate_many(
                [(trace, config, False) for config in CONFIGS[:12]]
            )
        assert [
            (task.kind, len(task.payload[1])) for task in executor.tasks
        ] == [("simulate", 7)]

    def test_sweep_points_group_into_sweep_tasks(
        self, trace, tmp_path
    ):
        executor = RecordingExecutor(inline=False)
        configs = CONFIGS[:10]
        with ExperimentRuntime(
            cache_dir=str(tmp_path), executor=executor
        ) as runtime:
            results, cached = runtime.sweep_points(
                [(trace, config, False) for config in configs]
            )
        assert cached == [False] * len(configs)
        assert [
            (task.kind, len(task.payload[1])) for task in executor.tasks
        ] == [("sweep", 8), ("sweep", 2)]
        cache = ResultCache(str(tmp_path))
        for config, result in zip(configs, results):
            stored = cache.load_result(simulate_key(trace, config, False))
            assert result_to_dict(stored) == result_to_dict(result)
            assert result == simulate(trace, config)


class TestNoStateLeaks:
    """Each per-config result equals a scalar run on a fresh trace."""

    #: Interleaved widths, memories and predictors, with repeats, so
    #: any state one configuration left on the decode plane would
    #: change a later one's result.
    SEQUENCE = [
        CONFIGS[0], CONFIGS[24], CONFIGS[0], CONFIGS[13], CONFIGS[37],
        CONFIGS[24], CONFIGS[0], CONFIGS[9],
    ]

    @pytest.mark.parametrize("spilled", [True, False],
                             ids=["spilled", "in_process"])
    def test_simulate_task_matches_fresh_runs(self, trace_path, spilled):
        trace_ref = trace_path if spilled else load_trace(trace_path)
        values = run_task(
            "simulate", (trace_ref, tuple(self.SEQUENCE), False)
        )
        assert len(values) == len(self.SEQUENCE)
        for config, value in zip(self.SEQUENCE, values):
            assert result_to_dict(value) == fresh_result(trace_path, config)

    def test_sweep_task_stores_every_point_before_returning(
        self, trace_path, tmp_path
    ):
        digests = tuple(f"{index:032x}" for index in range(len(
            self.SEQUENCE
        )))
        values = run_task(
            "sweep",
            (trace_path, tuple(self.SEQUENCE), False, str(tmp_path),
             digests),
        )
        cache = ResultCache(str(tmp_path))
        for config, digest, value in zip(self.SEQUENCE, digests, values):
            expected = fresh_result(trace_path, config)
            assert result_to_dict(value) == expected
            assert result_to_dict(cache.load_result(digest)) == expected

    def test_runtime_results_match_fresh_runs(self, trace_path):
        trace = load_trace(trace_path)
        executor = RecordingExecutor(inline=False)
        configs = CONFIGS[::3]
        with ExperimentRuntime(executor=executor) as runtime:
            results = runtime.simulate_many(
                [(trace, config, False) for config in configs]
            )
        assert {task.kind for task in executor.tasks} == {"simulate"}
        for config, result in zip(configs, results):
            assert result_to_dict(result) == fresh_result(trace_path, config)
