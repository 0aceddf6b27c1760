"""CPI stacks: the modern presentation of the paper's Figure 2 data.

A CPI stack decomposes cycles-per-instruction into a base component
(useful dispatch) plus one slice per stall family, so configurations
and applications compare at a glance.  The slices aggregate the trauma
taxonomy into the families the paper's discussion uses: branch
(if_pred/if_nfa/if_brch), memory (mm_* plus rg_mem), dependences
(remaining rg_*), resource (ful_*/diq_*/rename/st_data), and frontend
(if_* other than branch).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.context import ExperimentContext
from repro.analysis.reporting import render_table
from repro.uarch.config import ME1, PROC_4WAY, ProcessorConfig
from repro.uarch.results import SimulationResult

#: Stall families in display order.
FAMILIES: tuple[str, ...] = (
    "base", "branch", "memory", "dependence", "resource", "frontend", "other"
)

_BRANCH = {"if_pred", "if_nfa", "if_brch"}
_MEMORY_PREFIX = "mm_"
_MEMORY_EXTRA = {"rg_mem", "st_data"}
_RESOURCE_PREFIXES = ("ful_", "diq_")
_RESOURCE_EXTRA = {"rename", "decode"}
_FRONTEND_PREFIX = "if_"


def classify_trauma(name: str) -> str:
    """Map one trauma class to its CPI-stack family."""
    if name in _BRANCH:
        return "branch"
    if name.startswith(_MEMORY_PREFIX) or name in _MEMORY_EXTRA:
        return "memory"
    if name.startswith("rg_"):
        return "dependence"
    if name.startswith(_RESOURCE_PREFIXES) or name in _RESOURCE_EXTRA:
        return "resource"
    if name.startswith(_FRONTEND_PREFIX):
        return "frontend"
    return "other"


@dataclass(frozen=True)
class CpiStack:
    """One application's CPI decomposition."""

    application: str
    cpi: float
    slices: dict[str, float]  # family -> CPI contribution

    @property
    def base(self) -> float:
        """Useful-work component."""
        return self.slices.get("base", 0.0)

    def dominant_family(self) -> str:
        """Largest stall family (excluding base)."""
        stalls = {k: v for k, v in self.slices.items() if k != "base"}
        return max(stalls, key=stalls.get) if stalls else "base"


def cpi_stack_from_result(
    application: str, result: SimulationResult
) -> CpiStack:
    """Build a CPI stack from one simulation result.

    Each charged stall cycle becomes its family's slice; cycles not
    charged to any trauma form the base (dispatch made progress).
    """
    instructions = max(result.instructions, 1)
    slices = {family: 0.0 for family in FAMILIES}
    charged = 0
    for name, cycles in result.traumas.items():
        if not cycles:
            continue
        charged += cycles
        slices[classify_trauma(name)] += cycles / instructions
    slices["base"] = max(result.cycles - charged, 0) / instructions
    return CpiStack(
        application=application,
        cpi=result.cycles / instructions,
        slices=slices,
    )


def cpi_stacks(
    context: ExperimentContext,
    config: ProcessorConfig | None = None,
) -> list[CpiStack]:
    """CPI stacks for the whole suite on one configuration."""
    config = config or PROC_4WAY.with_memory(ME1)
    results = context.simulate_many([
        (context.suite.trace(name), config) for name in context.suite.names
    ])
    return [
        cpi_stack_from_result(name, result)
        for name, result in zip(context.suite.names, results)
    ]


def cpi_stack_report(stacks: list[CpiStack]) -> str:
    """Render the per-application CPI stacks."""
    rows = []
    for stack in stacks:
        rows.append(
            [stack.application, f"{stack.cpi:.2f}"]
            + [f"{stack.slices[family]:.2f}" for family in FAMILIES]
            + [stack.dominant_family()]
        )
    return render_table(
        "CPI stacks (4-way, me1)",
        ["application", "CPI"] + list(FAMILIES) + ["dominant stall"],
        rows,
    )
