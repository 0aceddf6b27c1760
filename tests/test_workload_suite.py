"""Unit tests for the workload suite layer."""

import pytest

from repro.workloads.spec import TABLE1_WORKLOADS, spec_of
from repro.workloads.suite import WorkloadSuite, scale_factor


class TestSpecs:
    def test_five_workloads(self):
        assert len(TABLE1_WORKLOADS) == 5

    def test_names_match_registry(self, small_suite):
        assert tuple(s.name for s in TABLE1_WORKLOADS) == small_suite.names

    def test_blast_parameters(self):
        assert "-G 10 -E 1" in spec_of("blast").input_parameters

    def test_fasta_style_parameters(self):
        assert "-s BL62" in spec_of("ssearch34").input_parameters

    def test_unknown_raises(self):
        import pytest

        with pytest.raises(KeyError):
            spec_of("hmmer")


class TestSuite:
    def test_database_lazy_and_cached(self, small_suite):
        assert small_suite.database is small_suite.database

    def test_traces_cached(self, small_suite):
        first = small_suite.trace("blast")
        second = small_suite.trace("blast")
        assert first is second

    def test_trace_budget_respected(self, small_suite):
        for name in small_suite.names:
            trace = small_suite.trace(name)
            assert len(trace) <= small_suite.trace_budget + 1

    def test_run_scores_present(self, small_suite):
        run = small_suite.run("blast")
        assert run.subjects_processed >= 1

    def test_count_mix_smaller_slice_fewer_instructions(self, small_suite):
        small = small_suite.count_mix("blast", residues=300)
        large = small_suite.count_mix("blast", residues=1500)
        assert small.total < large.total

    def test_paired_traces_same_subjects(self, small_suite):
        traces = small_suite.paired_traces(("sw_vmx128", "sw_vmx256"))
        assert set(traces) == {"sw_vmx128", "sw_vmx256"}
        # Same database slice: the 256-bit trace must be shorter.
        assert len(traces["sw_vmx256"]) < len(traces["sw_vmx128"])

    def test_paired_traces_cover_first_subject_in_full(self, small_suite):
        # Neither SW_vmx budget run finishes a subject here, so the
        # slice is floored at 1 and each kernel traces that subject
        # without a limit.
        from repro.kernels.registry import create_kernel
        from repro.runtime.keys import trace_digest

        names = ("sw_vmx128", "sw_vmx256")
        assert [small_suite.run(name).subjects_processed
                for name in names] == [0, 0]
        traces = small_suite.paired_traces(names)
        sliced = small_suite.database.slice(1)
        for name in names:
            full = create_kernel(name).run(
                small_suite.query, sliced, record=True, limit=None
            )
            assert not full.truncated
            assert trace_digest(traces[name]) == trace_digest(full.trace)

    def test_scale_factor_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert scale_factor() == 1.0

    def test_scale_factor_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2.5")
        assert scale_factor() == 2.5

    def test_scale_factor_invalid(self, monkeypatch):
        for value in ("banana", "abc", "0,1", "", "nan", "inf", "-inf"):
            monkeypatch.setenv("REPRO_SCALE", value)
            with pytest.raises(ValueError, match="REPRO_SCALE") as error:
                scale_factor()
            assert repr(value) in str(error.value)

    def test_invalid_scale_fails_suite_construction(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "nan")
        with pytest.raises(ValueError, match="REPRO_SCALE='nan'"):
            WorkloadSuite()

    @pytest.mark.parametrize(
        ("value", "expected"), [("0.001", 0.01), ("-3", 0.01), ("1e-1", 0.1)]
    )
    def test_scale_factor_floor(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_SCALE", value)
        assert scale_factor() == expected
