"""Declarative sweep specifications.

A spec is a small TOML (or YAML/JSON) document describing a grid over
microarchitectural axes crossed with workloads::

    [sweep]
    name = "table4-width"
    description = "Table IV widths x Table V memory hierarchies"

    [axes]
    width = ["4-way", "8-way", "16-way"]
    memory = ["me1", "me2", "me3", "me4", "meinf"]

    [workloads]
    names = ["ssearch34", "sw_vmx128", "sw_vmx256", "fasta34", "blast"]

    [report]
    metrics = ["ipc", "cycles"]

Axes come in two families:

* **preset axes** name committed configuration columns: ``width``
  (Table IV), ``memory`` (Table V), ``predictor`` (Table VI /
  perfect);
* **parametric axes** sweep one cache knob over the Fig. 5-7 base
  (``dl1_size_kb``, ``dl1_assoc``, ``dl1_latency``, ``l2_mb``), with
  ``"inf"`` meaning an ideal (always-hitting) level.

An axis with a single value pins that knob; omitted axes take the
paper's baseline.  The figure drivers declare their grids through this
same parser, so a spec grid point resolves to the *identical*
:class:`~repro.uarch.config.ProcessorConfig` — and therefore the
identical cache entry — as the corresponding figure point.

Validation happens at parse time through
:mod:`repro.verify.sweeplint`; a bad spec raises
:class:`SweepSpecError` listing every violation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.points import DEFAULT_METRICS
from repro.kernels.registry import WORKLOAD_NAMES
from repro.verify.sweeplint import NUMERIC_AXES, SpecViolation, validate_spec_data

#: Version of the spec semantics folded into the spec digest.
SPEC_SCHEMA_VERSION = 1


class SweepSpecError(ValueError):
    """A spec failed SweepLint validation (or could not be parsed)."""

    def __init__(self, source: str, violations: list[SpecViolation]) -> None:
        self.violations = violations
        detail = "\n".join(f"  {violation}" for violation in violations)
        super().__init__(f"invalid sweep spec {source}:\n{detail}")


@dataclass(frozen=True)
class SweepSpec:
    """One validated, immutable sweep description."""

    name: str
    description: str
    #: axis name -> swept values, in spec order.
    axes: tuple[tuple[str, tuple], ...]
    workloads: tuple[str, ...]
    metrics: tuple[str, ...]
    knee_axes: tuple[str, ...]
    trace_budget: int | None = None
    source: str = "<memory>"

    #: Cached canonical digest (filled lazily).
    _digest: list = field(default_factory=list, repr=False, compare=False)

    def axis_names(self) -> tuple[str, ...]:
        """Swept axis names in spec order."""
        return tuple(name for name, _ in self.axes)

    def axis_values(self, name: str) -> tuple:
        """Values of one axis (KeyError when not swept)."""
        for axis, values in self.axes:
            if axis == name:
                return values
        raise KeyError(name)

    @property
    def point_count(self) -> int:
        """Grid cardinality (workloads x every axis)."""
        count = len(self.workloads)
        for _, values in self.axes:
            count *= len(values)
        return count

    def digest(self) -> str:
        """Canonical content digest identifying this grid.

        Covers the axes, workloads, and trace budget — everything that
        changes *which* simulations the sweep runs — but not the report
        selection, so re-rendering with different metrics reuses the
        same manifest.
        """
        if not self._digest:
            material = json.dumps({
                "schema": SPEC_SCHEMA_VERSION,
                "axes": [[name, list(values)] for name, values in self.axes],
                "workloads": list(self.workloads),
                "trace_budget": self.trace_budget,
            }, sort_keys=True)
            self._digest.append(
                hashlib.blake2b(material.encode(), digest_size=8).hexdigest()
            )
        return self._digest[0]

    def to_dict(self) -> dict:
        """Round-trippable plain mapping (manifest/report embedding)."""
        return {
            "sweep": {
                "name": self.name,
                "description": self.description,
                **(
                    {"trace_budget": self.trace_budget}
                    if self.trace_budget is not None else {}
                ),
            },
            "axes": {name: list(values) for name, values in self.axes},
            "workloads": {"names": list(self.workloads)},
            "report": {
                "metrics": list(self.metrics),
                "knee_axes": list(self.knee_axes),
            },
        }


def parse_spec(data: dict, source: str = "<memory>") -> SweepSpec:
    """Validate a parsed mapping and build the :class:`SweepSpec`."""
    violations = validate_spec_data(data)
    if violations:
        raise SweepSpecError(source, violations)
    sweep = data["sweep"]
    axes = tuple(
        (name, tuple(values)) for name, values in data["axes"].items()
    )
    workloads = tuple(
        data.get("workloads", {}).get("names") or WORKLOAD_NAMES
    )
    report = data.get("report", {})
    metrics = tuple(report.get("metrics") or DEFAULT_METRICS)
    knee_axes = report.get("knee_axes")
    if knee_axes is None:
        # Default: every swept numeric axis with enough points to bend.
        knee_axes = [
            name for name, values in axes
            if name in NUMERIC_AXES and len(values) >= 3
        ]
    return SweepSpec(
        name=sweep["name"],
        description=str(sweep.get("description", "")),
        axes=axes,
        workloads=workloads,
        metrics=metrics,
        knee_axes=tuple(knee_axes),
        trace_budget=sweep.get("trace_budget"),
        source=source,
    )


def load_spec(path: str | Path) -> SweepSpec:
    """Load and validate a spec file (.toml, .yaml/.yml, or .json)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as error:
        raise SweepSpecError(str(path), [SpecViolation(
            "SW001", "file", f"cannot read spec: {error}"
        )]) from error
    suffix = path.suffix.lower()
    try:
        if suffix == ".toml":
            import tomllib

            data = tomllib.loads(text)
        elif suffix in {".yaml", ".yml"}:
            try:
                import yaml
            except ImportError as error:
                raise SweepSpecError(str(path), [SpecViolation(
                    "SW001", "file",
                    "PyYAML is not installed; use the TOML or JSON form "
                    "of this spec",
                )]) from error
            data = yaml.safe_load(text)
        elif suffix == ".json":
            data = json.loads(text)
        else:
            raise SweepSpecError(str(path), [SpecViolation(
                "SW001", "file",
                f"unknown spec format {suffix!r}; "
                "expected .toml, .yaml/.yml, or .json",
            )])
    except SweepSpecError:
        raise
    except Exception as error:
        raise SweepSpecError(str(path), [SpecViolation(
            "SW001", "file", f"parse error: {error}"
        )]) from error
    return parse_spec(data, source=str(path))
