"""repro.verify — static trace/ISA invariant checker and domain lint.

Three layers:

* **TraceLint** (:mod:`repro.verify.tracelint`): vectorized
  well-formedness rules (TR001-TR011) over the SoA trace columns and
  the decode plane, runnable without simulating.  Exposed on the CLI
  as ``python -m repro lint-trace`` and as ``strict=True`` hooks in
  ``load_trace`` / ``TraceBuilder.build`` / the runtime cache.
* **RepoLint** (:mod:`repro.verify.repolint`): per-file ``ast`` passes
  (REP001, REP002, REP005, REP008-REP012) encoding repo-specific
  hazards in every library module — nondeterminism, trace and
  decode-plane mutation, exception hygiene, per-cycle allocation,
  ad-hoc on-disk caches, cross-module global mutation, blocking calls,
  and environment reads the cache keys cannot see.  Exposed as
  ``python -m repro lint-code``, as a tier-1 pytest gate, and as the
  ``ExperimentRuntime(strict=True)`` hook.
* **SweepLint** (:mod:`repro.verify.sweeplint`): data-level validation
  rules (SW001-SW007) for declarative sweep specs, run at spec load
  time so a campaign fails before any task executes.

Cache-key completeness is proven dynamically, not by a lint rule:
:mod:`repro.verify.guards` mutates every field of every config
dataclass and requires ``runtime.keys.config_key`` to change.  Code
changes need no rule either: every cache key hashes
``runtime.keys.code_salt()``, a digest over every ``repro`` source
file.

See ``docs/verify.md`` for the rule catalogue and suppression syntax.
"""

from repro.verify.repolint import (
    RULES,
    LintViolation,
    RepoLintError,
    lint_paths,
    lint_source,
    stale_suppressions,
)
from repro.verify.sweeplint import (
    RULES as SWEEP_RULES,
)
from repro.verify.sweeplint import (
    SpecViolation,
    validate_spec_data,
)
from repro.verify.tracelint import (
    TRACE_RULES,
    TraceCheck,
    TraceLintError,
    TraceLintReport,
    TraceViolation,
    check_trace,
    lint_trace,
)

__all__ = [
    "RULES",
    "SWEEP_RULES",
    "TRACE_RULES",
    "LintViolation",
    "RepoLintError",
    "SpecViolation",
    "validate_spec_data",
    "TraceCheck",
    "TraceLintError",
    "TraceLintReport",
    "TraceViolation",
    "check_trace",
    "lint_paths",
    "lint_source",
    "lint_trace",
    "stale_suppressions",
]
