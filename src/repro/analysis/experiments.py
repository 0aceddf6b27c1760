"""Experiment registry: one runner per paper table/figure.

Each runner takes an :class:`ExperimentContext`, computes the
experiment's data, and returns ``(data, report)`` where ``report`` is
the plain-text rendering in the paper's arrangement.  The benchmark
harness (``benchmarks/``) drives these one-to-one.
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.bp_study import fig11_predictor_accuracy, fig11_report
from repro.analysis.breakdown import fig1_breakdown, fig1_report
from repro.analysis.context import ExperimentContext
from repro.analysis.queues import fig10_queue_occupancy, fig10_report
from repro.analysis.stalls import fig2_report, fig2_stalls
from repro.analysis.sweeps import (
    fig3_fig4_memory_sweep,
    fig3_report,
    fig4_report,
    fig5_cache_size,
    fig5_report,
    fig6_associativity,
    fig6_report,
    fig7_l1_latency,
    fig7_report,
    fig8_report,
    fig8_vmx_speedup,
    fig9_branch_prediction,
    fig9_report,
)
from repro.analysis.tables import (
    table1_report,
    table2_report,
    table3_report,
    table3_trace_sizes,
)

Runner = Callable[[ExperimentContext], tuple[object, str]]


def _run_table1(context: ExperimentContext) -> tuple[object, str]:
    report = table1_report()
    return None, report


def _run_table2(context: ExperimentContext) -> tuple[object, str]:
    report = table2_report()
    return None, report


def _run_table3(context: ExperimentContext) -> tuple[object, str]:
    data = table3_trace_sizes(context)
    return data, table3_report(data)


def _run_fig1(context: ExperimentContext) -> tuple[object, str]:
    data = fig1_breakdown(context)
    return data, fig1_report(data)


def _run_fig2(context: ExperimentContext) -> tuple[object, str]:
    data = fig2_stalls(context)
    return data, fig2_report(data)


def _run_fig3(context: ExperimentContext) -> tuple[object, str]:
    data = fig3_fig4_memory_sweep(context)
    return data, fig3_report(data, context.suite.names)


def _run_fig4(context: ExperimentContext) -> tuple[object, str]:
    data = fig3_fig4_memory_sweep(context)
    return data, fig4_report(data, context.suite.names)


def _run_fig5(context: ExperimentContext) -> tuple[object, str]:
    data = fig5_cache_size(context)
    return data, fig5_report(data)


def _run_fig6(context: ExperimentContext) -> tuple[object, str]:
    data = fig6_associativity(context)
    return data, fig6_report(data)


def _run_fig7(context: ExperimentContext) -> tuple[object, str]:
    data = fig7_l1_latency(context)
    return data, fig7_report(data)


def _run_fig8(context: ExperimentContext) -> tuple[object, str]:
    data = fig8_vmx_speedup(context)
    return data, fig8_report(data)


def _run_fig9(context: ExperimentContext) -> tuple[object, str]:
    data = fig9_branch_prediction(context)
    return data, fig9_report(data)


def _run_fig10(context: ExperimentContext) -> tuple[object, str]:
    data = fig10_queue_occupancy(context)
    return data, fig10_report(data)


def _run_fig11(context: ExperimentContext) -> tuple[object, str]:
    data = fig11_predictor_accuracy(context)
    return data, fig11_report(data)


EXPERIMENTS: dict[str, Runner] = {
    "table1": _run_table1,
    "table2": _run_table2,
    "table3": _run_table3,
    "fig1": _run_fig1,
    "fig2": _run_fig2,
    "fig3": _run_fig3,
    "fig4": _run_fig4,
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "fig8": _run_fig8,
    "fig9": _run_fig9,
    "fig10": _run_fig10,
    "fig11": _run_fig11,
}


def run_experiment(
    identifier: str, context: ExperimentContext | None = None
) -> tuple[object, str]:
    """Run one experiment by id (``table1``..``fig11``)."""
    try:
        runner = EXPERIMENTS[identifier]
    except KeyError:
        raise KeyError(
            f"unknown experiment {identifier!r}; "
            f"available: {sorted(EXPERIMENTS)}"
        ) from None
    if context is not None:
        return runner(context)
    context = ExperimentContext()
    with context.runtime:  # drops the runtime's temporary cache
        return runner(context)
