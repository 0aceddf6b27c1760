"""Behavioural tests for the out-of-order core on hand-built traces."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.isa.builder import TraceBuilder
from repro.isa.trace import COLUMN_DTYPES, MAX_SOURCES, Trace
from repro.kernels.registry import WORKLOAD_NAMES
from repro.uarch.config import (
    BP_PERFECT,
    ME1,
    MEINF,
    PROC_4WAY,
    PROC_8WAY,
)
from repro.uarch.pipeline.decode import DecodedTrace, decode_trace
from repro.uarch.simulator import simulate


def alu_chain(length):
    """Serial dependency chain of ALU ops."""
    builder = TraceBuilder("chain")
    register = builder.ialu("start")
    for _ in range(length - 1):
        register = builder.ialu("link", (register,))
    return builder.build()


def independent_alus(count):
    builder = TraceBuilder("wide")
    for index in range(count):
        builder.ialu(f"op{index % 8}")
    return builder.build()


class TestDecodePlane:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_decode_restores_collector_state(self, enabled):
        trace = alu_chain(50)
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            decoded = decode_trace(trace)
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert decoded.n == 50
        assert decode_trace(trace) is decoded

    @pytest.mark.parametrize("workload", WORKLOAD_NAMES)
    def test_distances_rebuild_the_sources_column(self, small_suite, workload):
        trace = small_suite.trace(workload)
        plane = DecodedTrace(trace)
        rebuilt = [
            tuple(index - back for back in row)
            for index, row in enumerate(plane.distances)
        ]
        assert rebuilt == [
            tuple(source for source in row if source >= 0)
            for row in trace.columns["sources"].tolist()
        ]

    @pytest.mark.parametrize("workload", WORKLOAD_NAMES)
    def test_interned_columns_share_objects(self, small_suite, workload):
        plane = DecodedTrace(small_suite.trace(workload))
        for name in ("pc", "line", "address", "target", "words", "distances"):
            column = getattr(plane, name)
            shared = {id(value) for value in column}
            assert len(shared) == len(set(column)), name

    @pytest.mark.parametrize("workload", WORKLOAD_NAMES)
    def test_kept_plane_is_at_most_160_bytes_per_instruction(
        self, small_suite, workload
    ):
        trace = small_suite.trace(workload)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            plane = DecodedTrace(trace)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert plane.n == len(trace)
        assert kept / len(trace) <= 160

    def test_distances_wider_than_21_bits(self):
        # Distances from 2**21 up take 22 bits, so a row of three no
        # longer packs into one 63-bit key; the dedup must still tell
        # these rows apart.
        n = (1 << 21) + 3
        columns = {
            name: np.broadcast_to(np.zeros(1, dtype=dtype), (n,))
            for name, dtype in COLUMN_DTYPES.items()
            if name != "sources"
        }
        sources = np.full((n, MAX_SOURCES), -1, dtype=np.int64)
        sources[n - 3] = [1, 0, 5]
        sources[n - 2] = [0, 2, -1]
        sources[n - 1] = [-1, 0, 1]
        sources[n - 4] = [n - 5, -1, 0]
        columns["sources"] = sources
        plane = DecodedTrace(Trace("wide", columns=columns))
        far = n - 1
        assert far.bit_length() == 22
        assert plane.distances[n - 4:] == [
            (1, far - 3),
            (far - 3, far - 2, far - 7),
            (far - 1, far - 3),
            (far, far - 1),
        ]
        assert plane.distances[0] == ()
        assert len({id(row) for row in plane.distances[:n - 4]}) == 1


class TestConservation:
    def test_everything_retires(self):
        result = simulate(independent_alus(500), PROC_4WAY)
        assert result.instructions == 500
        assert result.cycles > 0

    def test_ipc_bounded_by_dispatch_width(self):
        result = simulate(independent_alus(2000), PROC_4WAY)
        assert result.ipc <= PROC_4WAY.dispatch_width + 1e-9

    def test_empty_trace(self):
        from repro.isa.trace import Trace

        result = simulate(Trace("empty", []), PROC_4WAY)
        assert result.cycles == 0
        assert result.instructions == 0

    def test_trauma_cycles_bounded(self):
        result = simulate(alu_chain(500), PROC_4WAY)
        assert sum(result.traumas.values()) <= result.cycles

    def test_max_cycles_guard(self):
        with pytest.raises(RuntimeError):
            simulate(alu_chain(5000), PROC_4WAY, max_cycles=10)


class TestDependencyChains:
    def test_serial_chain_runs_near_one_ipc(self):
        result = simulate(alu_chain(1000), PROC_4WAY.with_memory(MEINF))
        # One-cycle ALU ops in a serial chain: ~1 instruction/cycle.
        assert 0.8 <= result.ipc <= 1.1

    def test_independent_ops_exploit_width(self):
        result = simulate(independent_alus(2000), PROC_4WAY.with_memory(MEINF))
        # Bounded by 3 FX units on the 4-way config.
        assert result.ipc > 2.0

    def test_wider_machine_helps_independent_work(self):
        narrow = simulate(independent_alus(2000), PROC_4WAY.with_memory(MEINF))
        wide = simulate(independent_alus(2000), PROC_8WAY.with_memory(MEINF))
        assert wide.cycles < narrow.cycles

    def test_chain_blames_fix_dependencies(self):
        result = simulate(alu_chain(2000), PROC_4WAY.with_memory(MEINF))
        assert result.traumas["rg_fix"] > 0


class TestMemoryBehaviour:
    def test_cold_load_miss_costs_memory_latency(self):
        builder = TraceBuilder("one-load")
        register = builder.iload("ld", 0x1000)
        for _ in range(3):
            register = builder.ialu("use", (register,))
        result = simulate(builder.build(), PROC_4WAY.with_memory(ME1))
        assert result.cycles > ME1.memory_latency

    def test_ideal_memory_fast(self):
        builder = TraceBuilder("one-load")
        register = builder.iload("ld", 0x1000)
        for _ in range(3):
            register = builder.ialu("use", (register,))
        result = simulate(builder.build(), PROC_4WAY.with_memory(MEINF))
        assert result.cycles < 30

    def test_repeated_line_hits_after_first(self):
        builder = TraceBuilder("hot-loop")
        for index in range(200):
            builder.iload("ld", 0x1000 + (index % 16) * 8)
        result = simulate(builder.build(), PROC_4WAY.with_memory(ME1))
        assert result.dl1.misses == 1  # a single 128-byte line
        assert result.dl1.accesses == 200

    def test_streaming_misses_counted(self):
        builder = TraceBuilder("stream")
        for index in range(256):
            builder.iload("ld", 0x100000 + index * 128)
        result = simulate(builder.build(), PROC_4WAY.with_memory(ME1))
        assert result.dl1.misses == 256

    def test_mshr_limit_slows_misses(self):
        def stream():
            builder = TraceBuilder("stream")
            for index in range(64):
                builder.iload("ld", 0x100000 + index * 128)
            return builder.build()

        from dataclasses import replace

        few = replace(PROC_4WAY, max_outstanding_misses=1)
        many = replace(PROC_4WAY, max_outstanding_misses=16)
        slow = simulate(stream(), few.with_memory(ME1))
        fast = simulate(stream(), many.with_memory(ME1))
        assert slow.cycles > fast.cycles * 2

    def test_store_updates_cache_for_later_load(self):
        builder = TraceBuilder("st-ld")
        value = builder.ialu("v")
        builder.istore("st", 0x4000, (value,), size=8)
        # Pad so the load issues after the store completed.
        pad = value
        for _ in range(40):
            pad = builder.ialu("pad", (pad,))
        builder.iload("ld", 0x4000, (pad,))
        result = simulate(builder.build(), PROC_4WAY.with_memory(ME1))
        assert result.dl1.misses == 1  # only the store's allocation


class TestBranchBehaviour:
    def make_branchy(self, pattern):
        builder = TraceBuilder("branchy")
        register = builder.ialu("init")
        for index, taken in enumerate(pattern):
            register = builder.ialu("work", (register,))
            builder.ctrl("br", taken=taken, sources=(register,))
        return builder.build()

    def test_predictable_branches_cheap(self):
        steady = self.make_branchy([True] * 400)
        result = simulate(steady, PROC_4WAY.with_memory(MEINF))
        assert result.branch.accuracy > 0.95

    def test_random_branches_cause_if_pred(self):
        import random

        rng = random.Random(3)
        noisy = self.make_branchy([rng.random() < 0.5 for _ in range(400)])
        result = simulate(noisy, PROC_4WAY.with_memory(MEINF))
        assert result.branch.accuracy < 0.8
        assert result.traumas["if_pred"] > 0

    def test_mispredictions_cost_cycles(self):
        import random

        rng = random.Random(4)
        steady = self.make_branchy([True] * 400)
        noisy = self.make_branchy([rng.random() < 0.5 for _ in range(400)])
        fast = simulate(steady, PROC_4WAY.with_memory(MEINF))
        slow = simulate(noisy, PROC_4WAY.with_memory(MEINF))
        assert slow.cycles > fast.cycles * 1.5

    def test_perfect_predictor_removes_penalty(self):
        import random

        rng = random.Random(5)
        noisy = self.make_branchy([rng.random() < 0.5 for _ in range(400)])
        real = simulate(noisy, PROC_4WAY.with_memory(MEINF))
        perfect = simulate(
            noisy, PROC_4WAY.with_memory(MEINF).with_branch(BP_PERFECT)
        )
        assert perfect.cycles < real.cycles
        assert perfect.branch.accuracy == 1.0
        assert perfect.traumas["if_pred"] == 0

    def test_btb_miss_penalty_charged_once_trained(self):
        steady = self.make_branchy([True] * 100)
        result = simulate(steady, PROC_4WAY.with_memory(MEINF))
        assert result.branch.btb_misses <= 2


class TestOccupancyTracking:
    def test_histograms_cover_every_cycle(self):
        trace = alu_chain(500)
        result = simulate(trace, PROC_4WAY, track_occupancy=True)
        for name, histogram in result.queue_occupancy.items():
            assert sum(histogram.values()) == result.cycles, name

    def test_disabled_by_default(self):
        result = simulate(alu_chain(100), PROC_4WAY)
        assert result.queue_occupancy == {}

    def test_mean_occupancy_sane(self):
        result = simulate(alu_chain(500), PROC_4WAY, track_occupancy=True)
        assert 0 <= result.occupancy_mean("FIX-Q") <= PROC_4WAY.issue_queue_size
