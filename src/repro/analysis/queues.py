"""Figure 10: issue-queue and in-flight occupancy distributions."""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.context import ExperimentContext
from repro.analysis.reporting import render_table
from repro.uarch.config import ME1, PROC_4WAY

#: The two applications the paper plots (space reasons).
FIG10_APPS: tuple[str, ...] = ("fasta34", "sw_vmx128")


@dataclass(frozen=True)
class OccupancyResult:
    """Occupancy histograms per application and queue."""

    histograms: dict[str, dict[str, dict[int, int]]]

    def mean(self, app: str, queue: str) -> float:
        """Mean occupancy of one queue."""
        histogram = self.histograms[app].get(queue, {})
        total = sum(histogram.values())
        if not total:
            return 0.0
        return sum(k * v for k, v in histogram.items()) / total


def fig10_queue_occupancy(
    context: ExperimentContext, apps: tuple[str, ...] = FIG10_APPS
) -> OccupancyResult:
    """Record per-cycle occupancy on the 4-way / me1 configuration."""
    config = PROC_4WAY.with_memory(ME1)
    context.prefetch_workloads(tuple(apps))
    results = context.simulate_many([
        (context.suite.trace(name), config, True) for name in apps
    ])
    return OccupancyResult(histograms={
        name: result.queue_occupancy for name, result in zip(apps, results)
    })


def fig10_report(result: OccupancyResult) -> str:
    """Render mean occupancies plus coarse distributions."""
    blocks = []
    for app, queues in result.histograms.items():
        rows = []
        for queue, histogram in queues.items():
            total = sum(histogram.values()) or 1
            mean = result.mean(app, queue)
            empty = histogram.get(0, 0) / total
            peak = max(histogram, default=0)
            rows.append(
                (queue, f"{mean:.2f}", f"{empty:.1%}", peak)
            )
        blocks.append(
            render_table(
                f"Figure 10: queue occupancy, {app}",
                ["queue", "mean", "empty cycles", "max seen"],
                rows,
            )
        )
    return "\n\n".join(blocks)
