"""Beyond-the-paper studies: ablations and the full query sweep.

The paper evaluates all queries of its Table II but prints only the
Glutathione S-transferase results "for space reasons"; and it
identifies two design choices it never isolates — SSEARCH's SWAT
computation-avoidance fast path, and BLAST's two-hit window.  These
drivers fill those gaps:

* :func:`query_length_sweep` — per-query IPC/branch behaviour across
  the Table II lengths (143-567 aa);
* :func:`swat_ablation` — SSEARCH with the fast path disabled in the
  emitted stream: how much of the instruction count, the branch mix,
  and the misprediction exposure the optimization is responsible for;
* :func:`blast_window_ablation` — the two-hit window's effect on seed
  counts, extension counts, and trace size.
"""

from __future__ import annotations

from dataclasses import dataclass

from dataclasses import replace

from repro.align.blast.engine import BlastEngine, BlastOptions
from repro.analysis.context import ExperimentContext
from repro.analysis.reporting import render_table
from repro.bio.queries import TABLE2_QUERIES, make_query
from repro.kernels.blast_kernel import BlastKernel
from repro.kernels.registry import SUITE_BLAST_THRESHOLD
from repro.kernels.ssearch_kernel import SsearchKernel
from repro.uarch.config import ME1, PROC_4WAY
from repro.uarch.simulator import simulate


@dataclass(frozen=True)
class QuerySweepRow:
    """One Table II query's characterization."""

    accession: str
    family: str
    length: int
    instructions: int
    ipc: float
    control_fraction: float
    branch_accuracy: float


def query_length_sweep(
    context: ExperimentContext,
    budget: int | None = None,
) -> list[QuerySweepRow]:
    """Characterize SSEARCH across all Table II queries.

    Uses a per-query trace over the suite database (one third of the
    standard budget each, since ten queries are traced).
    """
    suite = context.suite
    budget = budget or max(20_000, suite.trace_budget // 3)
    config = PROC_4WAY.with_memory(ME1)
    rows = []
    for descriptor in TABLE2_QUERIES:
        query = make_query(descriptor)
        run = SsearchKernel().run(
            query, suite.database, record=True, limit=budget
        )
        result = context.simulate_trace(run.trace, config)
        rows.append(
            QuerySweepRow(
                accession=descriptor.accession,
                family=descriptor.family,
                length=descriptor.length,
                instructions=run.instruction_count,
                ipc=result.ipc,
                control_fraction=run.mix.control_fraction(),
                branch_accuracy=result.branch.accuracy,
            )
        )
    return rows


def query_sweep_report(rows: list[QuerySweepRow]) -> str:
    """Render the per-query table."""
    return render_table(
        "Query sweep: SSEARCH34 across the Table II queries (4-way, me1)",
        ["accession", "length", "IPC", "ctrl", "bp accuracy"],
        [
            (
                row.accession,
                row.length,
                f"{row.ipc:.2f}",
                f"{row.control_fraction:.1%}",
                f"{row.branch_accuracy:.1%}",
            )
            for row in rows
        ],
    )


@dataclass(frozen=True)
class SwatAblationResult:
    """SSEARCH with/without the SWAT fast path."""

    instructions_with: int
    instructions_without: int
    control_with: float
    control_without: float
    ipc_with: float
    ipc_without: float
    accuracy_with: float
    accuracy_without: float

    @property
    def instruction_inflation(self) -> float:
        """Naive-path instruction count relative to the optimized path."""
        if not self.instructions_with:
            return 0.0
        return self.instructions_without / self.instructions_with


def swat_ablation(context: ExperimentContext) -> SwatAblationResult:
    """Compare the emitted streams with and without computation avoidance.

    Both runs compute identical scores over the same database subjects
    (the optimized kernel's subject coverage at the standard budget).
    The runs are unlimited, so each trace and its decode plane are the
    largest objects here: one variant is traced, simulated and dropped
    before the next is traced.
    """
    suite = context.suite
    baseline = suite.run("ssearch34")
    subjects = max(1, baseline.subjects_processed)
    sliced = suite.database.slice(subjects)
    config = PROC_4WAY.with_memory(ME1)

    def measure(computation_avoidance: bool):
        run = SsearchKernel(computation_avoidance=computation_avoidance).run(
            suite.query, sliced, record=True
        )
        result = context.simulate_trace(run.trace, config)
        return (
            run.scores, run.instruction_count, run.mix.control_fraction(),
            result,
        )

    scores_with, instructions_with, control_with, result_with = measure(True)
    scores_without, instructions_without, control_without, result_without = (
        measure(False)
    )
    assert scores_with == scores_without
    return SwatAblationResult(
        instructions_with=instructions_with,
        instructions_without=instructions_without,
        control_with=control_with,
        control_without=control_without,
        ipc_with=result_with.ipc,
        ipc_without=result_without.ipc,
        accuracy_with=result_with.branch.accuracy,
        accuracy_without=result_without.branch.accuracy,
    )


def swat_ablation_report(result: SwatAblationResult) -> str:
    """Render the SWAT ablation comparison."""
    return render_table(
        "Ablation: SSEARCH34 SWAT computation avoidance (same work)",
        ["variant", "instructions", "ctrl", "IPC", "bp accuracy"],
        [
            (
                "fast path on",
                result.instructions_with,
                f"{result.control_with:.1%}",
                f"{result.ipc_with:.2f}",
                f"{result.accuracy_with:.1%}",
            ),
            (
                "fast path off",
                result.instructions_without,
                f"{result.control_without:.1%}",
                f"{result.ipc_without:.2f}",
                f"{result.accuracy_without:.1%}",
            ),
        ],
    )


@dataclass(frozen=True)
class WindowAblationRow:
    """BLAST behaviour at one two-hit window."""

    window: int
    two_hits: int
    ungapped_extensions: int
    gapped_extensions: int
    instructions: int
    best_score: int


def blast_window_ablation(
    context: ExperimentContext,
    windows: tuple[int, ...] = (10, 20, 40, 80),
    subjects: int = 10,
) -> list[WindowAblationRow]:
    """Sweep the two-hit window over a fixed database slice."""
    suite = context.suite
    sliced = suite.database.slice(subjects)
    query = suite.query
    rows = []
    for window in windows:
        options = BlastOptions(
            threshold=SUITE_BLAST_THRESHOLD, window=window
        )
        engine = BlastEngine(query, options)
        search_result = engine.search(sliced)
        run = BlastKernel(options).run(query, sliced, record=False)
        best = search_result.hits[0].score if search_result.hits else 0
        rows.append(
            WindowAblationRow(
                window=window,
                two_hits=engine.statistics.two_hits,
                ungapped_extensions=engine.statistics.ungapped_extensions,
                gapped_extensions=engine.statistics.gapped_extensions,
                instructions=run.mix.total,
                best_score=best,
            )
        )
    return rows


@dataclass(frozen=True)
class PrefetchAblationRow:
    """One application's IPC with and without next-line prefetch."""

    application: str
    ipc_base: float
    ipc_prefetch: float
    miss_rate_base: float
    miss_rate_prefetch: float

    @property
    def speedup(self) -> float:
        """IPC gain from prefetching."""
        return self.ipc_prefetch / self.ipc_base if self.ipc_base else 0.0


def prefetch_ablation(
    context: ExperimentContext,
    apps: tuple[str, ...] = ("blast", "ssearch34", "sw_vmx128"),
) -> list[PrefetchAblationRow]:
    """Next-line-prefetch design study on the me1 configuration.

    The paper identifies BLAST as memory-bound; the next-line
    prefetcher is the textbook response, and it works: BLAST recovers
    a double-digit IPC gain (its per-subject diagonal arrays are
    touched in ascending order, so their cold misses prefetch well),
    while the cache-resident applications are unmoved.
    """
    base_config = PROC_4WAY.with_memory(ME1)
    prefetch_config = PROC_4WAY.with_memory(
        replace(ME1, name="me1+pf", sequential_prefetch=True)
    )
    rows = []
    for name in apps:
        trace = context.suite.trace(name)
        base = context.simulate_trace(trace, base_config)
        accelerated = context.simulate_trace(trace, prefetch_config)
        rows.append(
            PrefetchAblationRow(
                application=name,
                ipc_base=base.ipc,
                ipc_prefetch=accelerated.ipc,
                miss_rate_base=base.dl1.miss_rate,
                miss_rate_prefetch=accelerated.dl1.miss_rate,
            )
        )
    return rows


def prefetch_ablation_report(rows: list[PrefetchAblationRow]) -> str:
    """Render the prefetch design study."""
    return render_table(
        "Design study: next-line prefetch (4-way, me1)",
        ["application", "IPC", "IPC +prefetch", "speedup",
         "DL1 miss", "DL1 miss +prefetch"],
        [
            (
                row.application,
                f"{row.ipc_base:.2f}",
                f"{row.ipc_prefetch:.2f}",
                f"{row.speedup:.2f}x",
                f"{row.miss_rate_base:.2%}",
                f"{row.miss_rate_prefetch:.2%}",
            )
            for row in rows
        ],
    )


def window_ablation_report(rows: list[WindowAblationRow]) -> str:
    """Render the two-hit-window sweep."""
    return render_table(
        "Ablation: BLAST two-hit window",
        ["window", "two-hits", "ungapped ext", "gapped ext",
         "instructions", "best score"],
        [
            (
                row.window,
                row.two_hits,
                row.ungapped_extensions,
                row.gapped_extensions,
                row.instructions,
                row.best_score,
            )
            for row in rows
        ],
    )
