"""The reproduction's standard workload suite.

Binds the five Table I kernels to a common synthetic database and the
paper's default query (Glutathione S-transferase stand-in, 222 aa), and
caches generated traces so the many experiment sweeps reuse them.

Scaling: the paper's traces are 7.7M-320M instructions, generated from
searches over SwissProt.  Pure-Python cycle simulation makes that
impractical, so each application is traced over the leading slice of
the shared database up to an instruction *budget* (default 300k,
multiplied by the ``REPRO_SCALE`` environment variable).  Table III
style size comparisons instead count instructions over one *common*
residue slice in count-only mode, exactly mirroring the paper's
"traces belong to the execution on the same sequences" methodology.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from repro.bio.database import SequenceDatabase
from repro.bio.queries import default_query
from repro.bio.sequence import Sequence
from repro.bio.synthetic import SyntheticDatabaseConfig, generate_database
from repro.isa.trace import InstructionMix, Trace
from repro.kernels.base import KernelRun
from repro.kernels.registry import WORKLOAD_NAMES, create_kernel

#: Default per-application instruction budget for cycle-level traces.
DEFAULT_TRACE_BUDGET = 300_000
#: Default database shape (about 72k residues).
DEFAULT_DATABASE = SyntheticDatabaseConfig(
    sequence_count=200, family_count=8, family_size=4, seed=2006
)


def scale_factor() -> float:
    """Global experiment scale multiplier (``REPRO_SCALE`` env var).

    Unset means 1, and values below 0.01 are raised to that floor.  A
    value that is not a finite number raises :class:`ValueError`
    instead of running (and caching results) at some other scale.
    """
    raw = os.environ.get("REPRO_SCALE", "1")
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"REPRO_SCALE={raw!r} is not a finite number")
    return max(value, 0.01)


@dataclass
class WorkloadSuite:
    """Shared query/database plus a trace cache for the five workloads."""

    database_config: SyntheticDatabaseConfig = DEFAULT_DATABASE
    trace_budget: int = DEFAULT_TRACE_BUDGET
    query: Sequence = field(default_factory=default_query)
    _database: SequenceDatabase | None = field(default=None, repr=False)
    _trace_cache: dict[tuple[str, int], KernelRun] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        self.trace_budget = max(1000, int(self.trace_budget * scale_factor()))

    @property
    def names(self) -> tuple[str, ...]:
        """Workload names in Table I order."""
        return WORKLOAD_NAMES

    @property
    def database(self) -> SequenceDatabase:
        """The shared synthetic database (built lazily)."""
        if self._database is None:
            self._database = generate_database(self.database_config)
        return self._database

    def cached_run(
        self, name: str, budget: int | None = None
    ) -> KernelRun | None:
        """In-process cached run for (name, budget), or None."""
        budget = self.trace_budget if budget is None else budget
        return self._trace_cache.get((name, budget))

    def install_run(
        self, name: str, run: KernelRun, budget: int | None = None
    ) -> None:
        """Install an externally produced run (e.g. from the runtime's
        parallel trace generation or its persistent cache)."""
        budget = self.trace_budget if budget is None else budget
        self._trace_cache[(name, budget)] = run

    def run(self, name: str, budget: int | None = None) -> KernelRun:
        """Traced run of one workload up to the instruction budget."""
        budget = self.trace_budget if budget is None else budget
        key = (name, budget)
        cached = self._trace_cache.get(key)
        if cached is None:
            kernel = create_kernel(name)
            cached = self._trace_cache[key] = kernel.run(
                self.query, self.database, record=True, limit=budget
            )
        return cached

    def trace(self, name: str, budget: int | None = None) -> Trace:
        """Trace of one workload (see :meth:`run`)."""
        trace = self.run(name, budget).trace
        assert trace is not None
        return trace

    def paired_traces(
        self, names: tuple[str, ...], budget: int | None = None
    ) -> dict[str, Trace]:
        """Traces over the *same database slice* for fair comparisons.

        The slice is the leading subjects of the database, as many as
        the named workload that finishes the fewest subjects within the
        budget finishes, floored at 1.  Every workload then traces that
        slice in full, without a limit (Fig. 8's vmx128-vs-vmx256
        speedups need equal work, not equal trace length).  A budget
        that finishes no subject therefore yields the first subject
        traced in full, whatever its length: at ``REPRO_SCALE`` 0.01 and
        1 both SW_vmx budget runs finish 0 subjects, so Fig. 8 traces
        the default database's first subject (1,494 residues).
        """
        budget = self.trace_budget if budget is None else budget
        slice_sizes = []
        for name in names:
            run = self.run(name, budget)
            slice_sizes.append(max(1, run.subjects_processed))
        subjects = max(1, min(slice_sizes))
        sliced = self.database.slice(subjects)
        traces = {}
        for name in names:
            kernel = create_kernel(name)
            run = kernel.run(self.query, sliced, record=True, limit=None)
            traces[name] = run.trace
        return traces

    def count_mix(self, name: str, residues: int) -> InstructionMix:
        """Count-only run over a common residue slice (Table III mode)."""
        subjects = 0
        total = 0
        for sequence in self.database:
            subjects += 1
            total += len(sequence)
            if total >= residues:
                break
        sliced = self.database.slice(max(subjects, 1))
        kernel = create_kernel(name)
        run = kernel.run(self.query, sliced, record=False, limit=None)
        return run.mix
