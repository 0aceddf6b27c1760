"""Tests for the beyond-the-paper ablation/sweep drivers."""

import gc

from repro.analysis.extensions import (
    blast_window_ablation,
    query_length_sweep,
    query_sweep_report,
    swat_ablation,
    swat_ablation_report,
    window_ablation_report,
)
from repro.isa.trace import Trace
from repro.kernels.ssearch_kernel import SsearchKernel


class TestSwatAblation:
    def test_fast_path_shrinks_trace(self, context):
        result = swat_ablation(context)
        assert result.instruction_inflation > 1.1

    def test_fast_path_off_reduces_control_fraction(self, context):
        # Without the short path, the constant full update dilutes the
        # data-dependent branches.
        result = swat_ablation(context)
        assert result.control_without < result.control_with

    def test_one_variant_trace_alive_at_a_time(self, context, monkeypatch):
        # Both variants are unlimited traces: the first must be gone
        # (with its decode plane) before the second is generated.
        live: list[int] = []
        original = SsearchKernel.run

        def counting_run(self, *args, **kwargs):
            gc.collect()
            live.append(sum(
                isinstance(item, Trace) for item in gc.get_objects()
            ))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(SsearchKernel, "run", counting_run)
        swat_ablation(context)
        assert len(live) >= 2
        assert live[-1] == live[-2]

    def test_report_renders(self, context):
        report = swat_ablation_report(swat_ablation(context))
        assert "fast path on" in report
        assert "fast path off" in report


class TestWindowAblation:
    def test_wider_window_more_seeds(self, context):
        rows = blast_window_ablation(context, windows=(10, 80), subjects=6)
        assert rows[1].two_hits >= rows[0].two_hits

    def test_extension_counters_monotone_with_seeds(self, context):
        rows = blast_window_ablation(context, windows=(10, 80), subjects=6)
        for row in rows:
            assert row.gapped_extensions <= row.ungapped_extensions
            assert row.ungapped_extensions <= row.two_hits

    def test_report_renders(self, context):
        rows = blast_window_ablation(context, windows=(20, 40), subjects=4)
        report = window_ablation_report(rows)
        assert "two-hit window" in report


class TestQuerySweep:
    def test_rows_cover_table2(self, context):
        rows = query_length_sweep(context, budget=8000)
        assert len(rows) == 10
        assert rows[0].length == 143
        assert rows[-1].length == 567

    def test_metrics_populated(self, context):
        rows = query_length_sweep(context, budget=8000)
        for row in rows:
            assert row.ipc > 0
            assert 0 < row.control_fraction < 0.5
            assert 0.5 < row.branch_accuracy <= 1.0

    def test_report_renders(self, context):
        rows = query_length_sweep(context, budget=6000)
        report = query_sweep_report(rows)
        assert "P14942" in report
