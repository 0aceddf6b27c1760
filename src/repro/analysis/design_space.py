"""Design-space exploration: scaling individual unit pools.

The paper's motivation is "help designers tune future processor
architectures" for this workload class.  This study does the tuning
experiment the paper sets up but does not run: starting from the 4-way
baseline, scale one functional-unit pool at a time and measure which
applications respond — vector-integer units for the SIMD codes, fixed
point units for the heuristics, load/store units for everyone.

The unit axis here maps to ``replace()`` surgery on the config rather
than a sweepable preset, so it is a one-pass request list, not a
``repro.sweep`` axis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analysis.context import ExperimentContext
from repro.analysis.reporting import render_series
from repro.isa.opcodes import FunctionalUnit
from repro.uarch.config import ME1, PROC_4WAY, ProcessorConfig


def with_unit_count(
    config: ProcessorConfig, unit: FunctionalUnit, count: int
) -> ProcessorConfig:
    """Copy a configuration with one unit pool resized."""
    if count < 1:
        raise ValueError("unit count must be positive")
    units = dict(config.units)
    units[unit] = count
    return replace(config, name=f"{config.name}+{unit.name}x{count}",
                   units=units)


@dataclass(frozen=True)
class UnitScalingResult:
    """IPC per (application, unit count) for one scaled unit pool."""

    unit: FunctionalUnit
    counts: tuple[int, ...]
    ipc: dict[str, list[float]]

    def gain(self, application: str) -> float:
        """Relative IPC gain from the smallest to the largest pool."""
        values = self.ipc[application]
        return (values[-1] - values[0]) / values[0] if values[0] else 0.0


def unit_scaling_study(
    context: ExperimentContext,
    unit: FunctionalUnit,
    counts: tuple[int, ...] = (1, 2, 4),
    apps: tuple[str, ...] | None = None,
) -> UnitScalingResult:
    """Scale one unit pool on the 4-way/me1 baseline."""
    apps = apps or context.suite.names
    context.prefetch_workloads(tuple(apps))
    base = PROC_4WAY.with_memory(ME1)
    keys = [(name, count) for name in apps for count in counts]
    results = dict(zip(keys, context.simulate_many([
        (context.suite.trace(name), with_unit_count(base, unit, count))
        for name, count in keys
    ])))
    ipc = {
        name: [results[(name, count)].ipc for count in counts]
        for name in apps
    }
    return UnitScalingResult(unit=unit, counts=counts, ipc=ipc)


def unit_scaling_report(result: UnitScalingResult) -> str:
    """Render one unit pool's scaling curves."""
    return render_series(
        f"Design study: IPC vs {result.unit.name} unit count (4-way, me1)",
        "app",
        list(result.counts),
        result.ipc,
    )
