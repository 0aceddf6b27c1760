"""Tests for the runtime's content-addressed cache and its keys."""

import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.isa.builder import TraceBuilder
from repro.isa.serialize import load_trace, save_trace
from repro.kernels.base import KernelRun
from repro.runtime.cache import ResultCache, result_from_dict, result_to_dict
from repro.runtime.keys import (
    code_salt,
    simulate_key,
    trace_digest,
    trace_task_key,
)
from repro.uarch.config import ME1, ME2, PROC_4WAY, PROC_8WAY
from repro.uarch.results import BranchResult, CacheResult, SimulationResult


def build_trace(name="t", extra=0):
    builder = TraceBuilder(name)
    register = builder.ialu("a")
    builder.iload("ld", 0x1000, (register,), size=8)
    builder.ctrl("br", taken=True, backward=True)
    for _ in range(extra):
        builder.ialu("pad")
    return builder.build()


def build_result(**overrides) -> SimulationResult:
    values = dict(
        trace_name="t",
        config_name="4-way",
        memory_name="me1",
        instructions=1000,
        cycles=1700,
        traumas={"if_pred": 120, "rg_fix": 88},
        branch=BranchResult(
            predictions=40, correct=36, btb_lookups=40, btb_misses=2
        ),
        il1=CacheResult(900, 10),
        dl1=CacheResult(300, 25),
        l2=CacheResult(35, 5),
        itlb=CacheResult(900, 1),
        dtlb=CacheResult(300, 2),
        queue_occupancy={"issue": {0: 100, 3: 50}, "inflight": {10: 150}},
    )
    values.update(overrides)
    return SimulationResult(**values)


class TestResultJson:
    def test_round_trip(self):
        result = build_result()
        restored = result_from_dict(result_to_dict(result))
        assert restored == result

    def test_occupancy_keys_are_ints(self):
        restored = result_from_dict(result_to_dict(build_result()))
        histogram = restored.queue_occupancy["issue"]
        assert all(isinstance(key, int) for key in histogram)
        assert histogram[0] == 100

    def test_properties_survive(self):
        restored = result_from_dict(result_to_dict(build_result()))
        assert restored.ipc == pytest.approx(1000 / 1700)
        assert restored.branch.accuracy == pytest.approx(0.9)


class TestResultCache:
    def test_result_store_load(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = build_result()
        cache.store_result("ab" * 16, result)
        assert cache.load_result("ab" * 16) == result

    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).load_result("cd" * 16) is None

    def test_trace_store_load(self, tmp_path):
        cache = ResultCache(tmp_path)
        trace = build_trace()
        digest = trace_digest(trace)
        path = cache.store_trace(digest, trace)
        assert path.exists()
        loaded = cache.load_trace(digest)
        assert len(loaded) == len(trace)
        assert trace_digest(loaded) == digest

    def test_kernel_run_store_load(self, tmp_path):
        cache = ResultCache(tmp_path)
        trace = build_trace()
        digest = trace_digest(trace)
        cache.store_trace(digest, trace)
        run = KernelRun(
            kernel_name="blast",
            mix=trace.mix(),
            trace=trace,
            scores={"seq1": 42},
            truncated=True,
            subjects_processed=1,
        )
        cache.store_kernel_run("ef" * 16, run, digest)
        restored = cache.load_kernel_run("ef" * 16)
        assert restored.kernel_name == "blast"
        assert restored.mix == run.mix
        assert restored.scores == {"seq1": 42}
        assert restored.truncated is True
        assert restored.subjects_processed == 1
        assert len(restored.trace) == len(trace)

    def test_kernel_run_without_trace_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        trace = build_trace()
        run = KernelRun(
            kernel_name="blast", mix=trace.mix(), trace=trace
        )
        cache.store_kernel_run("aa" * 16, run, "99" * 16)  # trace not stored
        assert cache.load_kernel_run("aa" * 16) is None

    def test_stats_and_clean(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store_result("ab" * 16, build_result())
        trace = build_trace()
        cache.store_trace(trace_digest(trace), trace)
        stats = cache.stats()
        assert stats.results == 1
        assert stats.traces == 1
        assert stats.entries == 2
        assert stats.total_bytes > 0
        removed = cache.clean()
        assert removed.entries == 2
        assert cache.stats().entries == 0
        # The cache stays usable after a clean.
        cache.store_result("ab" * 16, build_result())
        assert cache.stats().results == 1

    def test_clean_keeps_sidecar_state_beside_objects(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store_result("ab" * 16, build_result())
        manifest = tmp_path / "sweeps" / "grid.json"
        manifest.parent.mkdir()
        manifest.write_text("{}")
        cache.clean()
        assert manifest.read_text() == "{}"

    def test_garbage_object_is_a_miss_not_a_crash(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store_result("ab" * 16, build_result())
        path = cache.objects / "ab" / f"{'ab' * 16}.result.json"
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])  # truncated write
        assert cache.load_result("ab" * 16) is None
        path.write_bytes(b"\xff\x00 this is not json")
        assert cache.load_result("ab" * 16) is None

    def test_evicted_entry_is_an_ordinary_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store_result("ab" * 16, build_result())
        [path] = cache.object_files()
        path.unlink()  # removed behind the cache's back
        assert cache.load_result("ab" * 16) is None
        cache.store_result("ab" * 16, build_result())
        assert cache.load_result("ab" * 16) == build_result()

    def test_concurrent_writers_never_tear(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = "ef" * 16
        expected = build_result()
        barrier = threading.Barrier(8)
        failures: list[Exception] = []

        def write():
            try:
                barrier.wait()
                cache.store_result(digest, expected)
                loaded = cache.load_result(digest)
                # Another writer may be mid-replace, but a reader sees
                # a whole file or none: never a half-written one.
                if loaded is None or loaded != expected:
                    failures.append(AssertionError(loaded))
            except Exception as error:  # pragma: no cover - failure path
                failures.append(error)

        threads = [threading.Thread(target=write) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert not failures
        assert cache.load_result(digest) == expected
        leftovers = [
            path for path in cache.objects.rglob("*")
            if path.is_file() and path.name.startswith(".")
        ]
        assert leftovers == []


class TestKeys:
    def test_simulate_key_stable(self):
        trace = build_trace()
        config = PROC_4WAY.with_memory(ME1)
        assert simulate_key(trace, config) == simulate_key(trace, config)

    def test_simulate_key_varies_with_config(self):
        trace = build_trace()
        base = simulate_key(trace, PROC_4WAY.with_memory(ME1))
        assert simulate_key(trace, PROC_8WAY.with_memory(ME1)) != base
        assert simulate_key(trace, PROC_4WAY.with_memory(ME2)) != base

    def test_simulate_key_varies_with_occupancy(self):
        trace = build_trace()
        config = PROC_4WAY.with_memory(ME1)
        assert simulate_key(trace, config, True) != simulate_key(
            trace, config, False
        )

    def test_simulate_key_varies_with_trace_content(self):
        config = PROC_4WAY.with_memory(ME1)
        assert simulate_key(build_trace(), config) != simulate_key(
            build_trace(extra=1), config
        )

    def test_trace_digest_survives_round_trip(self, tmp_path):
        trace = build_trace(extra=5)
        path = tmp_path / "t.npz"
        save_trace(trace, path)
        assert trace_digest(load_trace(path)) == trace_digest(trace)

    def test_trace_digest_depends_on_name(self):
        assert trace_digest(build_trace(name="a")) != trace_digest(
            build_trace(name="b")
        )

    def test_code_salt_stable_and_hexadecimal(self):
        salt = code_salt()
        assert salt == code_salt()
        int(salt, 16)

    def test_serialization_edit_changes_code_salt(self, tmp_path):
        # The salt is the only version every cache key carries: an
        # edit to the trace format must change it, with no schema
        # constant to bump by hand.
        package = Path(__file__).resolve().parents[1] / "src" / "repro"
        copy = tmp_path / "src" / "repro"
        shutil.copytree(
            package, copy, ignore=shutil.ignore_patterns("__pycache__")
        )

        def salt_of_copy() -> str:
            completed = subprocess.run(
                [sys.executable, "-c",
                 "from repro.runtime.keys import code_salt; "
                 "print(code_salt())"],
                capture_output=True, text=True, check=True, timeout=120,
                env={**os.environ, "PYTHONPATH": str(copy.parent)},
            )
            return completed.stdout.strip()

        assert salt_of_copy() == code_salt()
        serialize = copy / "isa" / "serialize.py"
        serialize.write_bytes(serialize.read_bytes() + b"\n")
        assert salt_of_copy() != code_salt()

    def test_trace_task_key_varies(self, small_suite):
        base = trace_task_key(
            "blast", 1000, small_suite.database_config, small_suite.query
        )
        assert trace_task_key(
            "fasta34", 1000, small_suite.database_config, small_suite.query
        ) != base
        assert trace_task_key(
            "blast", 2000, small_suite.database_config, small_suite.query
        ) != base

    def test_keys_follow_repro_scale(self, small_suite, monkeypatch):
        # REPRO_SCALE is the one environment variable library code may
        # read outside the CLI (REP012); both task keys must carry it,
        # or two scales would alias one cache entry.
        trace = build_trace()
        config = PROC_4WAY.with_memory(ME1)

        def keys() -> tuple[str, str]:
            return (
                simulate_key(trace, config),
                trace_task_key(
                    "blast", 1000, small_suite.database_config,
                    small_suite.query,
                ),
            )

        monkeypatch.setenv("REPRO_SCALE", "0.5")
        half = keys()
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        quarter = keys()
        assert half[0] != quarter[0]
        assert half[1] != quarter[1]
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert keys() == half
