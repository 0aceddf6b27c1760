"""Base machinery for instrumented (traced) workload kernels.

A traced kernel runs one of the paper's five applications on real input
while emitting its dynamic instruction stream into a
:class:`repro.isa.TraceBuilder`.  Each kernel:

* computes the *real* algorithm result (scores), which the test suite
  checks against the reference implementations in :mod:`repro.align`;
* emits instructions whose dependencies, addresses, and branch outcomes
  come from that same execution, so micro-architectural behaviour is
  data-driven rather than scripted;
* honours an instruction budget — when the budget is hit mid-database,
  the truncated trace is returned (the paper's traces are likewise
  windows of much longer executions).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.bio.database import SequenceDatabase
from repro.bio.sequence import Sequence
from repro.isa.builder import TraceBudgetExceededError, TraceBuilder
from repro.isa.trace import InstructionMix, Trace


@dataclass
class KernelRun:
    """Outcome of one traced kernel execution."""

    kernel_name: str
    mix: InstructionMix
    trace: Trace | None
    scores: dict[str, int] = field(default_factory=dict)
    truncated: bool = False
    subjects_processed: int = 0

    @property
    def instruction_count(self) -> int:
        """Total dynamic instructions emitted."""
        return self.mix.total


class TracedKernel(abc.ABC):
    """One instrumented application (Table I row)."""

    #: Registry/display name, e.g. ``"ssearch34"``.
    name: str = "abstract"

    @abc.abstractmethod
    def execute(
        self,
        builder: TraceBuilder,
        query: Sequence,
        database: SequenceDatabase,
        scores: dict[str, int],
    ) -> None:
        """Run the application, emitting instructions into ``builder``.

        Fills ``scores`` with subject identifier -> score as each
        subject completes (used for correctness checks; partially
        processed subjects are absent when the budget truncates).
        """

    def run(
        self,
        query: Sequence,
        database: SequenceDatabase,
        record: bool = True,
        limit: int | None = None,
    ) -> KernelRun:
        """Trace the application over ``database``.

        ``record=False`` counts instructions without materializing them
        (for Table III-scale measurements); ``limit`` truncates the run
        once the instruction budget is reached.
        """
        builder = TraceBuilder(self.name, record=record, limit=limit)
        scores: dict[str, int] = {}
        truncated = False
        try:
            self.execute(builder, query, database, scores)
        except TraceBudgetExceededError:
            truncated = True
        trace = builder.build() if record else None
        return KernelRun(
            kernel_name=self.name,
            mix=builder.mix(),
            trace=trace,
            scores=scores,
            truncated=truncated,
            subjects_processed=len(scores),
        )
