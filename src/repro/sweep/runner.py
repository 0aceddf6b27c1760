"""Resumable sweep execution on the experiment runtime.

The runner turns a validated spec into work:

1. expand the grid (:func:`repro.sweep.plan.expand_spec`);
2. generate (or recall) every referenced workload trace through
   :meth:`~repro.runtime.engine.ExperimentRuntime.run_workloads` — the
   runtime's prefix dedup means a trace shared by every config point of
   a workload is produced exactly once;
3. address every point by its simulate digest and split the grid into
   *complete* (recorded in the manifest under the same digest),
   *invalidated* (recorded under a stale digest — code, scale, or spec
   drift), and *pending* points;
4. execute pending points in bounded batches on the runtime pool
   (``sweep`` tasks store results durably from the workers), and
   persist the manifest after every batch.

Interrupting a run — ``max_points``, a killed process, a dying worker
pool — therefore loses at most one in-flight batch, and the next run
executes exactly the points that are missing.  A fully warm re-run
executes nothing: every point resolves from the manifest (and the
result cache double-checks nothing because the manifest match is
digest-exact).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.points import point_metrics
from repro.runtime.engine import ExperimentRuntime
from repro.runtime.keys import simulate_key
from repro.sweep.manifest import SweepManifest
from repro.sweep.plan import SweepPoint, expand_spec
from repro.sweep.spec import SweepSpec
from repro.workloads.suite import WorkloadSuite

#: Points per executed batch: small enough that an interruption loses
#: little, large enough that the pool stays saturated.
DEFAULT_BATCH_SIZE = 16


@dataclass
class SweepRun:
    """Outcome of one ``run_sweep`` invocation."""

    spec: SweepSpec
    manifest: SweepManifest
    points: list[SweepPoint]
    executed: list[str] = field(default_factory=list)
    resumed: list[str] = field(default_factory=list)
    invalidated: list[str] = field(default_factory=list)
    remaining: list[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """True when every grid point is recorded in the manifest."""
        return not self.remaining

    def summary(self) -> dict:
        """Headline counters (CLI/CI assertions)."""
        return {
            "sweep": self.spec.name,
            "spec_digest": self.spec.digest(),
            "points": len(self.points),
            "executed": len(self.executed),
            "resumed": len(self.resumed),
            "invalidated": len(self.invalidated),
            "remaining": len(self.remaining),
            "complete": self.complete,
        }


def _make_suite(spec: SweepSpec) -> WorkloadSuite:
    if spec.trace_budget is not None:
        return WorkloadSuite(trace_budget=spec.trace_budget)
    return WorkloadSuite()


def run_sweep(
    spec: SweepSpec,
    runtime: ExperimentRuntime,
    *,
    state_dir: str | Path | None = None,
    suite: WorkloadSuite | None = None,
    max_points: int | None = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> SweepRun:
    """Execute (or resume) one sweep campaign.

    ``state_dir`` holds the persistent manifest; it defaults to
    ``<cache root>/sweeps`` so a persistent ``--cache-dir`` makes both
    the results and the manifest durable together.  ``max_points``
    bounds how many *pending* points this invocation executes — the
    partial-run / interruption hook used by tests, CI, and budgeted
    overnight campaigns; the returned :class:`SweepRun` reports what
    remains.
    """
    if state_dir is None:
        state_dir = Path(runtime.cache.root) / "sweeps"
    suite = suite or _make_suite(spec)
    points = expand_spec(spec)
    manifest = SweepManifest.open(state_dir, spec)

    # Traces first: every config point of a workload shares one trace.
    runtime.run_workloads(suite, spec.workloads)
    digests = {
        point.point_id: simulate_key(
            suite.trace(point.workload), point.config, False
        )
        for point in points
    }

    run = SweepRun(spec=spec, manifest=manifest, points=points)
    pending: list[SweepPoint] = []
    for point in points:
        if manifest.completed(point.point_id, digests[point.point_id]):
            run.resumed.append(point.point_id)
        else:
            if point.point_id in manifest.points:
                run.invalidated.append(point.point_id)
            pending.append(point)

    budget = len(pending) if max_points is None else max(0, int(max_points))
    processed = min(budget, len(pending))
    for start in range(0, processed, batch_size):
        batch = pending[start:start + batch_size][:budget - start]
        results, cached = runtime.sweep_points(
            [
                (suite.trace(point.workload), point.config, False)
                for point in batch
            ]
        )
        for point, result, hit in zip(batch, results, cached):
            manifest.record(
                point.point_id,
                digests[point.point_id],
                point.workload,
                point.coords,
                point_metrics(result),
            )
            # A point another run (a figure driver, an earlier sweep
            # over an overlapping grid) already simulated resolves from
            # the shared result cache: it is resumed, not executed.
            (run.resumed if hit else run.executed).append(point.point_id)
        manifest.save()

    run.remaining = [point.point_id for point in pending[processed:]]
    return run


def sweep_status(
    spec: SweepSpec,
    state_dir: str | Path,
) -> dict:
    """Manifest-only progress summary (no runtime, no simulation).

    Without traces this cannot recompute digests, so points recorded in
    the manifest count as complete; digest-exact invalidation happens
    on the next ``run``.
    """
    points = expand_spec(spec)
    manifest = SweepManifest.open(state_dir, spec)
    recorded = [
        point.point_id for point in points
        if point.point_id in manifest.points
    ]
    return {
        "sweep": spec.name,
        "spec_digest": spec.digest(),
        "manifest": str(manifest.path),
        "points": len(points),
        "recorded": len(recorded),
        "missing": len(points) - len(recorded),
        "complete": len(recorded) == len(points),
    }
