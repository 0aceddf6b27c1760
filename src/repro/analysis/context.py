"""Shared experiment context: workload suite + simulation cache.

Most figures sweep one knob while holding everything else fixed, so the
same (trace, configuration) pair shows up across experiments.  The
context memoizes simulation results by a structural key, letting the
whole benchmark suite share work within a process.  The key is the
trace's content digest, so two traces with equal content share one
entry and a trace built after another was freed never inherits its
results.

A context may additionally carry an
:class:`~repro.runtime.engine.ExperimentRuntime`, which layers a
persistent content-addressed cache and (optionally) a multiprocessing
worker pool underneath the memo: ``simulate_trace`` routes misses
through it, and :meth:`ExperimentContext.simulate_many` lets the
analysis sweeps hand over a whole batch of (trace, config) pairs to fan
out at once.  Without a runtime the behaviour is exactly the historical
serial one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.isa.trace import Trace
from repro.runtime.keys import config_key as _config_key
from repro.runtime.keys import trace_digest
from repro.uarch.config import ProcessorConfig
from repro.uarch.results import SimulationResult
from repro.uarch.simulator import simulate
from repro.workloads.suite import WorkloadSuite

if TYPE_CHECKING:
    from repro.runtime.engine import ExperimentRuntime

#: A simulate request: (trace, config) or (trace, config, track_occupancy).
SimRequest = (
    "tuple[Trace, ProcessorConfig] | tuple[Trace, ProcessorConfig, bool]"
)


@dataclass
class ExperimentContext:
    """Workload suite plus a memoized simulation runner."""

    suite: WorkloadSuite = field(default_factory=WorkloadSuite)
    runtime: "ExperimentRuntime | None" = None
    _results: dict[tuple, SimulationResult] = field(
        default_factory=dict, repr=False
    )

    def _memo_key(
        self, trace: Trace, config: ProcessorConfig, track_occupancy: bool
    ) -> tuple:
        return (trace_digest(trace), _config_key(config), track_occupancy)

    def simulate_trace(
        self,
        trace: Trace,
        config: ProcessorConfig,
        track_occupancy: bool = False,
    ) -> SimulationResult:
        """Simulate (memoized on trace content + structural config key)."""
        key = self._memo_key(trace, config, track_occupancy)
        result = self._results.get(key)
        if result is None:
            if self.runtime is not None:
                result = self.runtime.simulate(
                    trace, config, track_occupancy=track_occupancy
                )
            else:
                result = simulate(
                    trace, config, track_occupancy=track_occupancy
                )
            self._results[key] = result
        return result

    def simulate_many(self, requests: Iterable[tuple]) -> list[SimulationResult]:
        """Resolve a batch of (trace, config[, track_occupancy]) requests.

        Results come back in request order, and each analysis driver
        reads them from this one list.  With a parallel runtime the
        memo misses fan out over the worker pool; without one they run
        serially, with identical values.  Every result also lands in
        the memo, so experiments that share points (Figs 3 and 4)
        simulate them once per context.
        """
        normalized = [
            (request[0], request[1],
             bool(request[2]) if len(request) > 2 else False)
            for request in requests
        ]
        keys = [self._memo_key(*request) for request in normalized]
        if self.runtime is not None:
            missing: list[tuple] = []
            missing_keys: list[tuple] = []
            seen: set[tuple] = set()
            for key, request in zip(keys, normalized):
                if key in self._results or key in seen:
                    continue
                seen.add(key)
                missing.append(request)
                missing_keys.append(key)
            if missing:
                for key, result in zip(
                    missing_keys, self.runtime.simulate_many(missing)
                ):
                    self._results[key] = result
        else:
            for request in normalized:
                self.simulate_trace(*request)
        return [self._results[key] for key in keys]

    def prefetch_workloads(
        self, names: tuple[str, ...] | None = None
    ) -> None:
        """Generate the standard traces for many workloads at once.

        A no-op without a runtime; with one, trace tasks resolve from
        the persistent cache or fan out over the worker pool, and the
        results land in the suite's in-process trace cache.
        """
        if self.runtime is not None:
            self.runtime.run_workloads(self.suite, names)
