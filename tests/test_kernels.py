"""Correctness and shape tests for all five traced kernels.

The central invariant: every traced kernel computes exactly the same
scores as the corresponding reference engine, while emitting a
well-formed trace whose instruction mix has the paper's Figure 1 shape.
"""

import pytest

from repro.align.blast.engine import BlastEngine, BlastOptions
from repro.align.fasta.engine import FastaEngine, FastaOptions
from repro.align.smith_waterman import sw_score
from repro.kernels.registry import (
    SUITE_BLAST_THRESHOLD,
    SUITE_FASTA_OPT_THRESHOLD,
    WORKLOAD_NAMES,
    create_kernel,
)
from repro.kernels.sw_vmx_kernel import SwVmxKernel

ALL_KERNELS = list(WORKLOAD_NAMES)


@pytest.fixture(scope="module")
def kernel_runs(query, tiny_database):
    return {
        name: create_kernel(name).run(query, tiny_database, record=True)
        for name in ALL_KERNELS
    }


class TestScoresMatchReferences:
    def test_sw_kernels_match_reference(self, kernel_runs, query, tiny_database):
        for name in ("ssearch34", "sw_vmx128", "sw_vmx256"):
            run = kernel_runs[name]
            assert len(run.scores) == len(tiny_database)
            for sid, score in run.scores.items():
                assert score == sw_score(query, tiny_database.get(sid)), (
                    name, sid
                )

    def test_blast_kernel_matches_engine(self, kernel_runs, query, tiny_database):
        engine = BlastEngine(
            query, BlastOptions(threshold=SUITE_BLAST_THRESHOLD)
        )
        for sid, score in kernel_runs["blast"].scores.items():
            assert score == engine.score_subject(tiny_database.get(sid)), sid

    def test_fasta_kernel_matches_engine(self, kernel_runs, query, tiny_database):
        engine = FastaEngine(
            query, FastaOptions(opt_threshold=SUITE_FASTA_OPT_THRESHOLD)
        )
        for sid, score in kernel_runs["fasta34"].scores.items():
            assert score == engine.score_subject(
                tiny_database.get(sid)
            ).reported, sid


class TestTraceWellFormedness:
    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_traces_validate(self, kernel_runs, name):
        kernel_runs[name].trace.validate()

    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_memory_ops_have_addresses(self, kernel_runs, name):
        for instruction in kernel_runs[name].trace:
            if instruction.is_memory:
                assert instruction.address > 0
                assert instruction.size > 0

    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_deterministic(self, name, query, tiny_database):
        first = create_kernel(name).run(query, tiny_database, record=True)
        second = create_kernel(name).run(query, tiny_database, record=True)
        assert first.mix.counts == second.mix.counts
        assert first.scores == second.scores


class TestTruncation:
    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_budget_respected(self, name, query, tiny_database):
        run = create_kernel(name).run(
            query, tiny_database, record=True, limit=5000
        )
        assert run.truncated
        assert run.instruction_count <= 5001
        run.trace.validate()

    def test_untruncated_flag(self, kernel_runs):
        for run in kernel_runs.values():
            assert not run.truncated

    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_count_mode_matches_record_mode(self, name, query, tiny_database):
        recorded = create_kernel(name).run(query, tiny_database, record=True)
        counted = create_kernel(name).run(query, tiny_database, record=False)
        assert recorded.mix.counts == counted.mix.counts
        assert counted.trace is None


class TestMixShape:
    """Figure 1 shape assertions (loose bands around the paper values)."""

    def test_control_fractions(self, kernel_runs):
        fractions = {
            name: run.mix.control_fraction()
            for name, run in kernel_runs.items()
        }
        # Scalar/heuristic codes are branchy; SIMD codes are not.
        assert 0.18 <= fractions["ssearch34"] <= 0.32
        assert 0.12 <= fractions["fasta34"] <= 0.28
        assert 0.10 <= fractions["blast"] <= 0.24
        assert fractions["sw_vmx128"] <= 0.05
        assert fractions["sw_vmx256"] <= 0.05

    def test_loads_significant_everywhere(self, kernel_runs):
        for name, run in kernel_runs.items():
            assert run.mix.load_fraction() >= 0.10, name

    def test_stores_much_smaller_than_loads(self, kernel_runs):
        for name, run in kernel_runs.items():
            assert run.mix.store_fraction() < run.mix.load_fraction(), name

    def test_simd_kernels_emit_vector_work(self, kernel_runs):
        from repro.isa.opcodes import OpClass

        for name in ("sw_vmx128", "sw_vmx256"):
            mix = kernel_runs[name].mix
            vector = (
                mix.fraction(OpClass.VSIMPLE)
                + mix.fraction(OpClass.VPERM)
                + mix.fraction(OpClass.VLOAD)
            )
            assert vector > 0.5, name

    def test_scalar_kernels_emit_no_vector_work(self, kernel_runs):
        from repro.isa.opcodes import OpClass

        for name in ("ssearch34", "fasta34", "blast"):
            mix = kernel_runs[name].mix
            assert mix.count(OpClass.VSIMPLE) == 0
            assert mix.count(OpClass.VLOAD) == 0

    def test_vmx256_fewer_instructions_than_vmx128(
        self, query, tiny_database
    ):
        v128 = create_kernel("sw_vmx128").run(query, tiny_database,
                                              record=False)
        v256 = create_kernel("sw_vmx256").run(query, tiny_database,
                                              record=False)
        assert v256.mix.total < v128.mix.total


class TestSwVmxTemplatedSkipsEmulation:
    """The SW_vmx kernels stamp their stream without emulating the lanes.

    Each finished subject's score comes from ``sw_score``; a subject the
    budget cuts off has none.
    """

    @pytest.mark.parametrize("name", ["sw_vmx128", "sw_vmx256"])
    @pytest.mark.parametrize("record", [True, False])
    def test_full_run_scores_match_reference(
        self, name, record, query, tiny_database
    ):
        run = create_kernel(name).run(query, tiny_database, record=record)
        assert not run.truncated
        assert list(run.scores) == [s.identifier for s in tiny_database]
        for subject in tiny_database:
            assert run.scores[subject.identifier] == sw_score(query, subject)

    @pytest.mark.parametrize("name", ["sw_vmx128", "sw_vmx256"])
    def test_truncated_subject_has_no_score(
        self, name, query, tiny_database
    ):
        kernel = create_kernel(name)
        total = kernel.run(query, tiny_database, record=False).mix.total
        run = kernel.run(query, tiny_database, limit=total // 2)
        assert run.truncated
        done = [s.identifier for s in tiny_database][: len(run.scores)]
        assert 0 < len(done) < len(tiny_database)
        assert list(run.scores) == done
        for identifier in done:
            assert run.scores[identifier] == sw_score(
                query, tiny_database.get(identifier)
            )

    def test_only_paper_widths_accepted(self):
        assert SwVmxKernel(256).lanes == 16
        with pytest.raises(ValueError, match="width_bits"):
            SwVmxKernel(512)
