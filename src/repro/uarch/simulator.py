"""Top-level simulation entry point.

:func:`simulate` runs one (trace, config) pair through the
out-of-order core.
"""

from __future__ import annotations

from repro.isa.trace import Trace
from repro.uarch.config import ProcessorConfig
from repro.uarch.pipeline.core import OutOfOrderCore
from repro.uarch.results import SimulationResult


def simulate(
    trace: Trace,
    config: ProcessorConfig,
    track_occupancy: bool = False,
    max_cycles: int | None = None,
) -> SimulationResult:
    """Run ``trace`` through one processor configuration.

    ``track_occupancy`` additionally records per-cycle issue-queue,
    in-flight, and reorder-queue occupancy histograms (Fig. 10) at some
    simulation-speed cost.  ``max_cycles`` guards against runaway
    simulations in tests.
    """
    core = OutOfOrderCore(trace, config, track_occupancy=track_occupancy)
    return core.run(max_cycles=max_cycles)

