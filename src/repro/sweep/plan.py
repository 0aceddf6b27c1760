"""Grid expansion: spec -> deterministic sweep points.

This is the one place that turns axis values into
:class:`~repro.uarch.config.ProcessorConfig`\\ s: the Fig. 3-7 and 9
drivers in :mod:`repro.analysis.sweeps` expand their grids here too.
So a sweep point's simulate digest
(:func:`repro.runtime.keys.simulate_key`) is *identical* to the one a
``repro fig3``/``fig5``/``fig9`` run produces, and the two share cache
entries byte-for-byte.

Expansion order is deterministic: workloads outermost (spec order),
then each axis in spec order, so point lists, manifests, and reports
are stable across runs and machines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.sweep.spec import SweepSpec
from repro.uarch.config import (
    BP_PERFECT,
    BP_REAL,
    KB,
    ME1,
    ME2,
    ME3,
    ME4,
    MEINF,
    PROC_4WAY,
    PROC_8WAY,
    PROC_12WAY,
    PROC_16WAY,
    BranchPredictorConfig,
    MemoryConfig,
    ProcessorConfig,
    memory_with_dl1,
)

WIDTH_PRESETS: dict[str, ProcessorConfig] = {
    "4-way": PROC_4WAY,
    "8-way": PROC_8WAY,
    "12-way": PROC_12WAY,
    "16-way": PROC_16WAY,
}

MEMORY_PRESETS: dict[str, MemoryConfig] = {
    "me1": ME1, "me2": ME2, "me3": ME3, "me4": ME4, "meinf": MEINF,
}

PREDICTOR_PRESETS: dict[str, BranchPredictorConfig] = {
    "real": BP_REAL,
    "combined": BP_REAL,
    "perfect": BP_PERFECT,
    "gshare": BranchPredictorConfig(kind="gshare"),
    "bimodal": BranchPredictorConfig(kind="bimodal"),
}

#: Defaults for the parametric cache axes — the exact keyword defaults
#: of :func:`repro.uarch.config.memory_with_dl1` (the Fig. 5-7 base).
_PARAMETRIC_DEFAULTS: dict[str, object] = {
    "dl1_size_kb": 32,
    "dl1_assoc": 2,
    "dl1_latency": 1,
    "l2_mb": 2,
}


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: a workload on one fully resolved configuration."""

    point_id: str
    workload: str
    #: (axis, value) in spec order — the point's grid coordinates.
    coords: tuple[tuple[str, object], ...]
    config: ProcessorConfig

    def coord(self, axis: str) -> object:
        """Value of one coordinate (KeyError when absent)."""
        for name, value in self.coords:
            if name == axis:
                return value
        raise KeyError(axis)


def build_config(coords: dict[str, object]) -> ProcessorConfig:
    """Resolve one set of axis values into a ``ProcessorConfig``."""
    processor = WIDTH_PRESETS[coords.get("width", "4-way")]
    if "memory" in coords:
        memory = MEMORY_PRESETS[coords["memory"]]
    elif any(axis in coords for axis in _PARAMETRIC_DEFAULTS):
        values = dict(_PARAMETRIC_DEFAULTS)
        values.update({
            axis: coords[axis]
            for axis in _PARAMETRIC_DEFAULTS
            if axis in coords
        })
        size_kb = values["dl1_size_kb"]
        l2_mb = values["l2_mb"]
        memory = memory_with_dl1(
            None if size_kb == "inf" else int(size_kb) * KB,
            associativity=int(values["dl1_assoc"]),
            latency=int(values["dl1_latency"]),
            l2_mb=None if l2_mb == "inf" else int(l2_mb),
        )
    else:
        memory = ME1
    config = processor.with_memory(memory)
    predictor = PREDICTOR_PRESETS[coords.get("predictor", "real")]
    if predictor is not BP_REAL:
        config = config.with_branch(predictor)
    return config


def point_id(workload: str, coords: tuple[tuple[str, object], ...]) -> str:
    """Stable identifier: ``workload|axis=value|...`` in spec order."""
    parts = [workload] + [f"{axis}={value}" for axis, value in coords]
    return "|".join(parts)


def expand_spec(spec: SweepSpec) -> list[SweepPoint]:
    """Expand a spec into its full, deterministically ordered grid."""
    axis_names = spec.axis_names()
    value_lists = [spec.axis_values(name) for name in axis_names]
    points: list[SweepPoint] = []
    for workload in spec.workloads:
        for combination in itertools.product(*value_lists):
            coords = tuple(zip(axis_names, combination))
            points.append(SweepPoint(
                point_id=point_id(workload, coords),
                workload=workload,
                coords=coords,
                config=build_config(dict(coords)),
            ))
    return points
