"""Persistent sweep manifests.

One JSON file per (spec name, grid digest) records every completed
point: its simulate digest (the same content address the runtime cache
stores the full :class:`~repro.uarch.results.SimulationResult` under)
and its extracted per-point metrics
(:func:`repro.analysis.points.point_metrics`).

The manifest is the sweep's resume state *and* its report input:

* **resume** — a point whose recorded digest matches the digest the
  planner computes today is complete and never re-executes; a digest
  mismatch (code change, ``REPRO_SCALE`` change, edited grid) marks
  the point invalidated, and exactly those points re-run;
* **reports** — ``repro sweep report`` renders entirely from the
  manifest, so producing the HTML/JSON artifacts never touches the
  worker pool or the result cache.

Writes are atomic (temporary file + ``os.replace``) and happen after
every executed batch, so an interrupted campaign loses at most the
in-flight batch.  Contents are serialized with sorted keys: a manifest
reached by interrupt-plus-resume is byte-identical to one from an
uninterrupted run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.sweep.spec import SweepSpec

#: Bump on manifest layout changes (old manifests are then ignored).
MANIFEST_VERSION = 1


def manifest_path(state_dir: str | Path, spec: SweepSpec) -> Path:
    """Where a spec's manifest lives under one state directory."""
    return Path(state_dir) / f"{spec.name}-{spec.digest()}.manifest.json"


@dataclass
class SweepManifest:
    """Completed points of one sweep grid."""

    path: Path
    sweep: str
    spec_digest: str
    #: point_id -> {"digest", "workload", "coords", "metrics"}.
    points: dict[str, dict] = field(default_factory=dict)

    @classmethod
    def open(cls, state_dir: str | Path, spec: SweepSpec) -> "SweepManifest":
        """Load the manifest for ``spec`` (empty when absent/stale)."""
        path = manifest_path(state_dir, spec)
        manifest = cls(path=path, sweep=spec.name, spec_digest=spec.digest())
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            return manifest
        if (
            data.get("version") != MANIFEST_VERSION
            or data.get("spec_digest") != spec.digest()
        ):
            return manifest
        points = data.get("points")
        if isinstance(points, dict):
            manifest.points = points
        return manifest

    def record(
        self,
        point_id: str,
        digest: str,
        workload: str,
        coords: tuple[tuple[str, object], ...],
        metrics: dict,
    ) -> None:
        """Mark one point complete."""
        self.points[point_id] = {
            "digest": digest,
            "workload": workload,
            "coords": [[axis, value] for axis, value in coords],
            "metrics": metrics,
        }

    def completed(self, point_id: str, digest: str) -> bool:
        """True when the point is recorded under the *current* digest."""
        entry = self.points.get(point_id)
        return entry is not None and entry.get("digest") == digest

    def metrics(self, point_id: str) -> dict | None:
        """Stored metrics of one completed point."""
        entry = self.points.get(point_id)
        return entry.get("metrics") if entry else None

    def to_dict(self) -> dict:
        """Serializable form (sorted point ids for byte stability)."""
        return {
            "version": MANIFEST_VERSION,
            "sweep": self.sweep,
            "spec_digest": self.spec_digest,
            "points": {
                point_id: self.points[point_id]
                for point_id in sorted(self.points)
            },
        }

    def save(self) -> None:
        """Atomically persist the manifest."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        temporary = self.path.with_name(
            f".{self.path.name}.{os.getpid()}.tmp"
        )
        try:
            temporary.write_text(payload)
            os.replace(temporary, self.path)
        finally:
            temporary.unlink(missing_ok=True)
