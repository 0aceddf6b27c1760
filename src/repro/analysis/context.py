"""Shared experiment context: workload suite + experiment runtime.

Most figures sweep one knob while holding everything else fixed, so the
same (trace, configuration) pair shows up across experiments.  The
context pairs the workload suite with an
:class:`~repro.runtime.engine.ExperimentRuntime`, whose
content-addressed :class:`~repro.runtime.cache.ResultCache` is the one
cache of simulation results: a point requested again — by the same
figure or another one — is a cache hit, keyed on the trace's content
digest, so two traces with equal content share one entry and a trace
built after another was freed never inherits its results.

The default runtime is serial with a temporary cache that lives as long
as the runtime; pass ``ExperimentRuntime(jobs=N, cache_dir=...)`` to
fan misses out over a worker pool and keep results across processes.
Either way :meth:`ExperimentContext.simulate_many` hands a whole batch
of (trace, config) pairs to the runtime at once, and the values are
identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.isa.trace import Trace
from repro.runtime.engine import ExperimentRuntime
from repro.uarch.config import ProcessorConfig
from repro.uarch.results import SimulationResult
from repro.workloads.suite import WorkloadSuite


@dataclass
class ExperimentContext:
    """Workload suite plus the runtime that resolves its simulations."""

    suite: WorkloadSuite = field(default_factory=WorkloadSuite)
    runtime: ExperimentRuntime = field(default_factory=ExperimentRuntime)

    def simulate_trace(
        self,
        trace: Trace,
        config: ProcessorConfig,
        track_occupancy: bool = False,
    ) -> SimulationResult:
        """Simulate (cached on trace content + structural config key)."""
        return self.runtime.simulate(
            trace, config, track_occupancy=track_occupancy
        )

    def simulate_many(self, requests: Iterable[tuple]) -> list[SimulationResult]:
        """Resolve a batch of (trace, config[, track_occupancy]) requests.

        Results come back in request order, and each analysis driver
        reads them from this one list.  Points already in the runtime's
        cache (Figs 3 and 4 share theirs) are hits; the misses run on
        the runtime's executor.
        """
        return self.runtime.simulate_many([
            (request[0], request[1],
             bool(request[2]) if len(request) > 2 else False)
            for request in requests
        ])

    def prefetch_workloads(
        self, names: tuple[str, ...] | None = None
    ) -> None:
        """Generate the standard traces for many workloads at once.

        Trace tasks resolve from the runtime's cache or run on its
        executor, and the results land in the suite's in-process trace
        cache.
        """
        self.runtime.run_workloads(self.suite, names)
