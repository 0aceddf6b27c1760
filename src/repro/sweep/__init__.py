"""repro.sweep — declarative sweep orchestration.

The source paper is fundamentally a sweep study: its headline results
are grids over processor width (Table IV), cache geometry and latency
(Table V), and branch prediction (Table VI), crossed with the Table I
workloads.  This package turns those grids into *data*:

* :mod:`repro.sweep.spec` — a declarative spec (TOML/YAML/JSON grid
  over uarch and workload axes), validated by
  :mod:`repro.verify.sweeplint` at load time;
* :mod:`repro.sweep.plan` — expands the grid into deterministic
  :class:`~repro.sweep.plan.SweepPoint`\\ s, each carrying the exact
  :class:`~repro.uarch.config.ProcessorConfig`; the Fig. 3-7 and 9
  drivers expand their grids through it too, so a sweep point and the
  matching figure point share one cache entry;
* :mod:`repro.sweep.manifest` — a persistent, atomically updated
  manifest of completed points, keyed by the same content-addressed
  simulate digests the runtime cache uses;
* :mod:`repro.sweep.runner` — a resumable executor on the
  :class:`~repro.runtime.engine.ExperimentRuntime` pool: completed
  points survive interruption, re-running a spec executes only
  missing/invalidated points;
* :mod:`repro.sweep.report` — per-point metric tables (IPC, CPI
  stacks, trauma distributions) rendered as text/JSON/HTML artifacts,
  with knee detection along numeric axes.

CLI: ``python -m repro sweep {run,status,report}``; committed specs
reproducing the paper's configuration tables live in
``examples/sweeps/``.  See ``docs/sweeps.md``.
"""

from repro.sweep.manifest import SweepManifest, manifest_path
from repro.sweep.plan import SweepPoint, expand_spec
from repro.sweep.report import detect_knee, render_report, report_data
from repro.sweep.runner import SweepRun, run_sweep, sweep_status
from repro.sweep.spec import SweepSpec, SweepSpecError, load_spec, parse_spec

__all__ = [
    "SweepManifest",
    "SweepPoint",
    "SweepRun",
    "SweepSpec",
    "SweepSpecError",
    "detect_knee",
    "expand_spec",
    "load_spec",
    "manifest_path",
    "parse_spec",
    "render_report",
    "report_data",
    "run_sweep",
    "sweep_status",
]
