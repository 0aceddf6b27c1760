"""Figure 2: histogram of traumas on the 4-way / 32K / 1M configuration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.context import ExperimentContext
from repro.analysis.reporting import render_histogram
from repro.uarch.config import ME1, PROC_4WAY

#: The dominant trauma classes the paper reports per application.
PAPER_DOMINANT: dict[str, tuple[str, ...]] = {
    "ssearch34": ("if_pred",),
    "sw_vmx128": ("rg_vi", "rg_vper"),
    "sw_vmx256": ("rg_vi", "rg_vper", "mm_dl1", "mm_dl2", "rg_mem"),
    "fasta34": ("if_pred", "rg_fix", "mm_dl2"),
    "blast": ("rg_fix", "mm_dl2", "if_pred", "mm_dl1", "rg_mem"),
}


@dataclass(frozen=True)
class StallResult:
    """Per-application trauma histograms plus cycle counts."""

    histograms: dict[str, dict[str, int]]
    cycles: dict[str, int]

    def top(self, name: str, count: int = 6) -> list[tuple[str, int]]:
        """Largest stall classes for one application."""
        ranked = sorted(self.histograms[name].items(), key=lambda kv: -kv[1])
        return [(trauma, value) for trauma, value in ranked if value][:count]


def fig2_stalls(context: ExperimentContext) -> StallResult:
    """Run the Fig. 2 configuration (4-way, me1, real predictor)."""
    config = PROC_4WAY.with_memory(ME1)
    context.prefetch_workloads()
    results = dict(zip(context.suite.names, context.simulate_many([
        (context.suite.trace(name), config) for name in context.suite.names
    ])))
    return StallResult(
        histograms={name: result.traumas for name, result in results.items()},
        cycles={name: result.cycles for name, result in results.items()},
    )


def fig2_report(result: StallResult) -> str:
    """Render one histogram block per application."""
    blocks = []
    for name, histogram in result.histograms.items():
        blocks.append(
            render_histogram(
                f"Figure 2: stall cycles in {name} "
                f"(total {result.cycles[name]} cycles)",
                histogram,
            )
        )
    return "\n\n".join(blocks)
