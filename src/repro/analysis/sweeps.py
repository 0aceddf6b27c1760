"""Configuration sweeps: Figures 3-9.

Every sweep varies exactly the knob its figure varies and holds
everything else at the paper's baseline, reusing the per-application
standard traces through the context's simulation cache.

Figs 3-7 and 9 declare their grids as axis mappings and expand them
through the ``repro.sweep`` planner, the same code that expands the
committed ``examples/sweeps/`` specs, so a figure point and the
matching sweep point share one configuration and one cache entry.
Fig. 8 compares traces over a shared database slice, which no sweep
axis expresses, so it builds its three configurations per width here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analysis.context import ExperimentContext
from repro.analysis.reporting import render_series
from repro.sweep.plan import expand_spec
from repro.sweep.spec import parse_spec
from repro.uarch.config import (
    KB,
    ME1,
    MEMORY_PRESETS,
    PROC_12WAY,
    PROC_16WAY,
    PROC_4WAY,
    PROC_8WAY,
    ProcessorConfig,
)
from repro.uarch.results import SimulationResult
from repro.uarch.standalone import run_cache_only_batch

WIDTHS: tuple[ProcessorConfig, ...] = (PROC_4WAY, PROC_8WAY, PROC_16WAY)

#: Fig. 5 cache-size axis: 1K to 2M.
FIG5_SIZES: tuple[int, ...] = tuple(1 * KB << i for i in range(12))
#: Fig. 6 associativity axis.
FIG6_ASSOCIATIVITIES: tuple[int, ...] = (1, 2, 4, 8)
#: Fig. 7 L1 latency axis.
FIG7_LATENCIES: tuple[int, ...] = (1, 2, 4, 6, 8, 10)
#: Fig. 8 width axis.
FIG8_WIDTHS: tuple[ProcessorConfig, ...] = (
    PROC_4WAY, PROC_8WAY, PROC_12WAY, PROC_16WAY
)


def _resolve_grid(
    context: ExperimentContext,
    name: str,
    axes: dict[str, list | tuple],
    simulate: bool = True,
) -> dict[tuple, tuple[ProcessorConfig, SimulationResult | None]]:
    """Expand one figure's axes over the suite and resolve every point.

    Returns ``(workload, *coords) -> (config, result)``.  The axes pass
    through SweepLint exactly as a spec file's would.  With
    ``simulate=False`` every result is None.
    """
    spec = parse_spec({
        "sweep": {"name": name},
        "axes": axes,
        "workloads": {"names": list(context.suite.names)},
    }, source=f"<{name}>")
    points = expand_spec(spec)
    context.prefetch_workloads()
    results: list[SimulationResult | None] = [None] * len(points)
    if simulate:
        results = context.simulate_many([
            (context.suite.trace(point.workload), point.config)
            for point in points
        ])
    return {
        (point.workload, *(value for _, value in point.coords)):
            (point.config, result)
        for point, result in zip(points, results)
    }


def _dl1_sweep(
    context: ExperimentContext,
    name: str,
    axis: str,
    values: list[int],
    with_ipc: bool,
) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
    """DL1 miss rate and IPC per workload over one DL1 axis (Figs 5, 6)."""
    grid = _resolve_grid(context, name, {axis: values}, simulate=with_ipc)
    miss_rate: dict[str, list[float]] = {}
    ipc: dict[str, list[float]] = {}
    for workload in context.suite.names:
        cells = [grid[(workload, value)] for value in values]
        cache_results = run_cache_only_batch(
            context.suite.trace(workload),
            [config.memory for config, _ in cells],
        )
        miss_rate[workload] = [dl1.miss_rate for dl1, _ in cache_results]
        ipc[workload] = (
            [result.ipc for _, result in cells] if with_ipc else []
        )
    return miss_rate, ipc


@dataclass(frozen=True)
class MemorySweepResult:
    """Figs 3 & 4: cycles and IPC per (application, width, memory)."""

    cycles: dict[tuple[str, str, str], int]
    ipc: dict[tuple[str, str, str], float]
    widths: tuple[str, ...]
    memories: tuple[str, ...]

    def series_for(self, metric: str, app: str) -> dict[str, list[float]]:
        """memory-name -> values over widths, for one application."""
        table = self.cycles if metric == "cycles" else self.ipc
        return {
            memory: [float(table[(app, width, memory)]) for width in self.widths]
            for memory in self.memories
        }


def fig3_fig4_memory_sweep(context: ExperimentContext) -> MemorySweepResult:
    """Width x memory sweep shared by Figures 3 and 4."""
    widths = tuple(width.name for width in WIDTHS)
    memories = tuple(memory.name for memory in MEMORY_PRESETS)
    grid = _resolve_grid(
        context, "fig3-fig4", {"width": widths, "memory": memories}
    )
    return MemorySweepResult(
        cycles={key: result.cycles for key, (_, result) in grid.items()},
        ipc={key: result.ipc for key, (_, result) in grid.items()},
        widths=widths,
        memories=memories,
    )


def fig3_report(result: MemorySweepResult, apps: tuple[str, ...]) -> str:
    """Figure 3: cycles vs memory configuration."""
    blocks = []
    for app in apps:
        blocks.append(
            render_series(
                f"Figure 3: cycles, {app}",
                "memory",
                result.widths,
                result.series_for("cycles", app),
                value_format="{:.0f}",
            )
        )
    return "\n\n".join(blocks)


def fig4_report(result: MemorySweepResult, apps: tuple[str, ...]) -> str:
    """Figure 4: IPC vs memory configuration."""
    blocks = []
    for app in apps:
        blocks.append(
            render_series(
                f"Figure 4: IPC, {app}",
                "memory",
                result.widths,
                result.series_for("ipc", app),
            )
        )
    return "\n\n".join(blocks)


@dataclass(frozen=True)
class CacheSizeResult:
    """Fig. 5: DL1 miss rate and IPC vs DL1 size."""

    sizes: tuple[int, ...]
    miss_rate: dict[str, list[float]]
    ipc: dict[str, list[float]]


def fig5_cache_size(
    context: ExperimentContext,
    sizes: tuple[int, ...] = FIG5_SIZES,
    with_ipc: bool = True,
) -> CacheSizeResult:
    """Sweep DL1 sizes (2M L2, 4-way core).

    Miss rates replay only the reference stream (fast); IPC uses the
    full pipeline and can be disabled for quick looks.
    """
    miss_rate, ipc = _dl1_sweep(
        context, "fig5", "dl1_size_kb", [size // KB for size in sizes],
        with_ipc,
    )
    return CacheSizeResult(sizes=sizes, miss_rate=miss_rate, ipc=ipc)


def fig5_report(result: CacheSizeResult) -> str:
    """Figure 5: miss rate (a) and IPC (b) vs cache size."""
    labels = [
        f"{size // KB}K" if size < 1024 * KB else f"{size // (1024 * KB)}M"
        for size in result.sizes
    ]
    parts = [
        render_series(
            "Figure 5a: DL1 miss rate vs cache size",
            "app",
            labels,
            {k: [v * 100 for v in vs] for k, vs in result.miss_rate.items()},
            value_format="{:.2f}",
        )
    ]
    if any(result.ipc.values()):
        parts.append(
            render_series(
                "Figure 5b: IPC vs cache size", "app", labels, result.ipc
            )
        )
    return "\n\n".join(parts)


@dataclass(frozen=True)
class AssociativityResult:
    """Fig. 6: DL1 miss rate and IPC vs associativity (32K DL1)."""

    associativities: tuple[int, ...]
    miss_rate: dict[str, list[float]]
    ipc: dict[str, list[float]]


def fig6_associativity(
    context: ExperimentContext,
    associativities: tuple[int, ...] = FIG6_ASSOCIATIVITIES,
    with_ipc: bool = True,
) -> AssociativityResult:
    """Sweep DL1 associativity at 32K."""
    miss_rate, ipc = _dl1_sweep(
        context, "fig6", "dl1_assoc", list(associativities), with_ipc
    )
    return AssociativityResult(
        associativities=associativities, miss_rate=miss_rate, ipc=ipc
    )


def fig6_report(result: AssociativityResult) -> str:
    """Figure 6: miss rate (a) and IPC (b) vs associativity."""
    labels = list(result.associativities)
    parts = [
        render_series(
            "Figure 6a: DL1 miss rate vs associativity",
            "app",
            labels,
            {k: [v * 100 for v in vs] for k, vs in result.miss_rate.items()},
            value_format="{:.2f}",
        )
    ]
    if any(result.ipc.values()):
        parts.append(
            render_series(
                "Figure 6b: IPC vs associativity", "app", labels, result.ipc
            )
        )
    return "\n\n".join(parts)


@dataclass(frozen=True)
class LatencyResult:
    """Fig. 7: IPC vs L1 hit latency."""

    latencies: tuple[int, ...]
    ipc: dict[str, list[float]]

    def sensitivity(self, name: str) -> float:
        """Relative IPC drop from the fastest to the slowest latency."""
        values = self.ipc[name]
        return (values[0] - values[-1]) / values[0] if values[0] else 0.0


def fig7_l1_latency(
    context: ExperimentContext,
    latencies: tuple[int, ...] = FIG7_LATENCIES,
) -> LatencyResult:
    """Sweep L1 hit latency (32K/32K/1M, 4-way)."""
    grid = _resolve_grid(
        context, "fig7", {"dl1_latency": list(latencies), "l2_mb": [1]}
    )
    ipc = {
        name: [grid[(name, latency, 1)][1].ipc for latency in latencies]
        for name in context.suite.names
    }
    return LatencyResult(latencies=latencies, ipc=ipc)


def fig7_report(result: LatencyResult) -> str:
    """Figure 7: IPC vs L1 latency."""
    return render_series(
        "Figure 7: IPC vs L1 hit latency",
        "app",
        list(result.latencies),
        result.ipc,
    )


@dataclass(frozen=True)
class VmxSpeedupResult:
    """Fig. 8: vmx speedups vs width, incl. the +1-latency variant."""

    widths: tuple[str, ...]
    speedup: dict[str, list[float]]  # variant -> speedup per width


def fig8_vmx_speedup(context: ExperimentContext) -> VmxSpeedupResult:
    """Speedups of the SW variants relative to sw_vmx128.

    All variants run the *same database slice* so cycles are directly
    comparable; ``sw_vmx256 + 1 lat`` adds one cycle to every 32-byte
    vector load (the pipelined-double-width memory path scenario).
    """
    traces = context.suite.paired_traces(("sw_vmx128", "sw_vmx256"))
    requests = []
    for width in FIG8_WIDTHS:
        config = width.with_memory(ME1)
        requests.append((traces["sw_vmx128"], config))
        requests.append((traces["sw_vmx256"], config))
        requests.append(
            (traces["sw_vmx256"], replace(config, wide_load_extra_latency=1))
        )
    results = context.simulate_many(requests)
    speedup: dict[str, list[float]] = {
        "sw_vmx128": [],
        "sw_vmx256": [],
        "sw_vmx256+1lat": [],
    }
    for index in range(0, len(results), 3):
        base, v256, v256_slow = (
            result.cycles for result in results[index:index + 3]
        )
        speedup["sw_vmx128"].append(1.0)
        speedup["sw_vmx256"].append(base / v256 if v256 else 0.0)
        speedup["sw_vmx256+1lat"].append(base / v256_slow if v256_slow else 0.0)
    return VmxSpeedupResult(
        widths=tuple(width.name for width in FIG8_WIDTHS), speedup=speedup
    )


def fig8_report(result: VmxSpeedupResult) -> str:
    """Figure 8: speedup vs width."""
    return render_series(
        "Figure 8: SW SIMD speedup over sw_vmx128 (same database slice)",
        "variant",
        list(result.widths),
        result.speedup,
    )


@dataclass(frozen=True)
class BranchImpactResult:
    """Fig. 9: IPC with the real vs a perfect branch predictor."""

    widths: tuple[str, ...]
    real: dict[str, list[float]]
    perfect: dict[str, list[float]]

    def gain(self, name: str, width_index: int = 0) -> float:
        """Relative IPC gain from perfect prediction."""
        real = self.real[name][width_index]
        perfect = self.perfect[name][width_index]
        return (perfect - real) / real if real else 0.0


def fig9_branch_prediction(context: ExperimentContext) -> BranchImpactResult:
    """Perfect-vs-real predictor sweep over widths (me1 memory)."""
    widths = tuple(width.name for width in WIDTHS)
    grid = _resolve_grid(
        context, "fig9", {"width": widths, "predictor": ["real", "perfect"]}
    )

    def ipc(predictor: str) -> dict[str, list[float]]:
        return {
            name: [grid[(name, width, predictor)][1].ipc for width in widths]
            for name in context.suite.names
        }

    return BranchImpactResult(
        widths=widths, real=ipc("real"), perfect=ipc("perfect")
    )


def fig9_report(result: BranchImpactResult) -> str:
    """Figure 9: perfect and real branch predictor IPC."""
    series: dict[str, list[float]] = {}
    for name in result.real:
        series[f"{name} (real)"] = result.real[name]
        series[f"{name} (perfect)"] = result.perfect[name]
    return render_series(
        "Figure 9: IPC with real vs perfect branch prediction",
        "app",
        list(result.widths),
        series,
    )
