"""Trace container and per-class statistics.

A :class:`Trace` is the unit of work the micro-architecture simulator
consumes: an ordered dynamic instruction stream plus the bookkeeping
needed for the paper's measurements (instruction breakdown for Fig. 1,
instruction counts for Table III).

Traces are stored natively as a structure of arrays — one NumPy column
per instruction field, exactly the layout the on-disk ``.npz`` format
(:mod:`repro.isa.serialize`) and the runtime cache's content digests
use.  :class:`~repro.isa.instruction.Instruction` objects are
materialized lazily, only when code actually asks for them (debugging,
``repr``, legacy iteration); the simulator and the analytics read the
columns directly.  This makes ``load_trace`` a plain array read,
``slice`` a zero-copy view, and per-trace statistics a handful of
vectorized passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.isa.instruction import Instruction
from repro.isa.opcodes import FIG1_ORDER, MEMORY_OPS, OpClass

#: Maximum sources the columnar layout reserves per instruction (the
#: on-disk format width; wider traces can exist in memory but cannot be
#: serialized or digested).
MAX_SOURCES = 3

#: Column name -> dtype of the native (and on-disk) layout.
COLUMN_DTYPES: dict[str, type] = {
    "ops": np.uint8,
    "pcs": np.int64,
    "dests": np.uint8,
    "addresses": np.int64,
    "sizes": np.int32,
    "takens": np.uint8,
    "targets": np.int64,
    "sources": np.int64,
}

#: OpClass -> is it a memory operation (vectorized lookup table).
_IS_MEMORY_OP = np.array(
    [OpClass(value) in MEMORY_OPS for value in range(len(OpClass))],
    dtype=bool,
)


@dataclass(frozen=True)
class InstructionMix:
    """Per-class instruction counts with convenience accessors."""

    counts: tuple[int, ...]  # indexed by OpClass value

    @property
    def total(self) -> int:
        """Total dynamic instructions."""
        return sum(self.counts)

    def count(self, op: OpClass) -> int:
        """Dynamic count of one class."""
        return self.counts[op]

    def fraction(self, op: OpClass) -> float:
        """Fraction of the trace in one class (0 when empty)."""
        total = self.total
        return self.counts[op] / total if total else 0.0

    def control_fraction(self) -> float:
        """Fraction of branches/jumps (paper: 25%/18%/16% vs ~2% SIMD)."""
        return self.fraction(OpClass.CTRL)

    def load_fraction(self) -> float:
        """Fraction of loads, scalar plus vector."""
        return self.fraction(OpClass.ILOAD) + self.fraction(OpClass.VLOAD)

    def store_fraction(self) -> float:
        """Fraction of stores, scalar plus vector."""
        return self.fraction(OpClass.ISTORE) + self.fraction(OpClass.VSTORE)

    def breakdown(self) -> dict[str, int]:
        """Counts keyed by lower-case class name, in Fig. 1 order."""
        return {op.name.lower(): self.counts[op] for op in FIG1_ORDER}


def concat_columns(
    chunks: Sequence[Mapping[str, np.ndarray]],
) -> dict[str, np.ndarray]:
    """Bulk append: concatenate column chunks into one columnar layout.

    The builder's fast path materializes template stamps as independent
    column chunks; this joins them (and any interleaved scalar-emitted
    chunks) into the single contiguous layout :class:`Trace` stores.
    An empty chunk list yields a valid zero-length trace.
    """
    if not chunks:
        return {
            name: np.empty(
                (0, MAX_SOURCES) if name == "sources" else 0,
                dtype=COLUMN_DTYPES[name],
            )
            for name in COLUMN_DTYPES
        }
    if len(chunks) == 1:
        return dict(chunks[0])
    return {
        name: np.concatenate([chunk[name] for chunk in chunks])
        for name in COLUMN_DTYPES
    }


def _columns_from_instructions(
    instructions: Sequence[Instruction],
) -> dict[str, np.ndarray]:
    """Encode instruction objects into the columnar layout.

    The source width grows past :data:`MAX_SOURCES` when an instruction
    carries more sources than the serialized format allows; such traces
    simulate fine but are rejected at save/digest time.
    """
    n = len(instructions)
    width = MAX_SOURCES
    for instruction in instructions:
        if len(instruction.sources) > width:
            width = len(instruction.sources)
    ops = np.empty(n, dtype=np.uint8)
    pcs = np.empty(n, dtype=np.int64)
    dests = np.empty(n, dtype=np.uint8)
    addresses = np.empty(n, dtype=np.int64)
    sizes = np.empty(n, dtype=np.int32)
    takens = np.empty(n, dtype=np.uint8)
    targets = np.empty(n, dtype=np.int64)
    sources = np.full((n, width), -1, dtype=np.int64)
    for index, instruction in enumerate(instructions):
        ops[index] = instruction.op
        pcs[index] = instruction.pc
        dests[index] = instruction.has_dest
        addresses[index] = instruction.address
        sizes[index] = instruction.size
        takens[index] = instruction.taken
        targets[index] = instruction.target
        for column, source in enumerate(instruction.sources):
            sources[index, column] = source
    return {
        "ops": ops,
        "pcs": pcs,
        "dests": dests,
        "addresses": addresses,
        "sizes": sizes,
        "takens": takens,
        "targets": targets,
        "sources": sources,
    }


class Trace:
    """An ordered dynamic instruction stream with its mix statistics.

    Construct either from :class:`Instruction` objects (tests,
    hand-built traces) or, zero-copy, from a column dictionary via the
    ``columns`` keyword (the builder, the loader, and ``slice`` all use
    this path).
    """

    __slots__ = (
        "name", "columns", "_instructions", "_decoded", "stamped_regions",
        "__weakref__",
    )

    def __init__(
        self,
        name: str,
        instructions: Sequence[Instruction] = (),
        *,
        columns: Mapping[str, np.ndarray] | None = None,
    ) -> None:
        self.name = name
        self._decoded = None  # per-trace decode plane (repro.uarch)
        #: Template-stamped spans (set by the builder; not serialized).
        self.stamped_regions: tuple = ()
        if columns is not None:
            missing = COLUMN_DTYPES.keys() - columns.keys()
            if missing:
                raise ValueError(f"trace columns missing {sorted(missing)}")
            self.columns = dict(columns)
            self._instructions: list[Instruction] | None = None
        else:
            materialized = list(instructions)
            self.columns = _columns_from_instructions(materialized)
            self._instructions = materialized

    # ------------------------------------------------------------------
    # Pickling: ship only the columns; caches rebuild lazily.
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        return {"name": self.name, "columns": self.columns}

    def __setstate__(self, state: dict) -> None:
        self.name = state["name"]
        self.columns = state["columns"]
        self._instructions = None
        self._decoded = None
        self.stamped_regions = ()

    # ------------------------------------------------------------------
    # Instruction materialization (debugging / legacy object access)
    # ------------------------------------------------------------------
    def _materialize(self, index: int) -> Instruction:
        columns = self.columns
        row = columns["sources"][index]
        return Instruction(
            op=OpClass(int(columns["ops"][index])),
            pc=int(columns["pcs"][index]),
            sources=tuple(int(value) for value in row if value >= 0),
            has_dest=bool(columns["dests"][index]),
            address=int(columns["addresses"][index]),
            size=int(columns["sizes"][index]),
            taken=bool(columns["takens"][index]),
            target=int(columns["targets"][index]),
        )

    @property
    def instructions(self) -> list[Instruction]:
        """The trace as :class:`Instruction` objects (built lazily)."""
        if self._instructions is None:
            self._instructions = [
                self._materialize(index) for index in range(len(self))
            ]
        return self._instructions

    def __len__(self) -> int:
        return len(self.columns["ops"])

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, index):
        if isinstance(index, int) and self._instructions is None:
            n = len(self)
            if index < -n or index >= n:
                raise IndexError("trace index out of range")
            return self._materialize(index % n if index < 0 else index)
        return self.instructions[index]

    def __repr__(self) -> str:
        return f"Trace({self.name!r}, {len(self)} instructions)"

    # ------------------------------------------------------------------
    # Statistics (vectorized)
    # ------------------------------------------------------------------
    def mix(self) -> InstructionMix:
        """Compute the per-class instruction breakdown."""
        counts = np.bincount(self.columns["ops"], minlength=len(OpClass))
        return InstructionMix(counts=tuple(int(c) for c in counts))

    def branch_count(self) -> int:
        """Number of control instructions."""
        return int((self.columns["ops"] == OpClass.CTRL).sum())

    def slice(self, limit: int) -> "Trace":
        """First ``limit`` instructions as a new trace (zero-copy views).

        Dependencies always point backwards, so any prefix of a trace is
        itself a well-formed trace.
        """
        columns = {
            name: column[:limit] for name, column in self.columns.items()
        }
        return Trace(f"{self.name}[:{limit}]", columns=columns)

    def validate(self) -> None:
        """Check well-formedness: producers precede consumers and have dests.

        Raises ``ValueError`` on the first violation (in trace order);
        used by tests and by kernel development as a sanity gate.
        """
        n = len(self)
        if not n:
            return
        columns = self.columns
        sources = columns["sources"]
        valid = sources >= 0
        forward = valid & (sources >= np.arange(n).reshape(n, 1))
        producers = np.where(valid & ~forward, sources, 0)
        destless = (
            valid & ~forward & (columns["dests"][producers] == 0)
        )
        source_bad = forward | destless
        bad_rows = np.flatnonzero(source_bad.any(axis=1))
        first_source_row = int(bad_rows[0]) if bad_rows.size else n
        memory_bad = _IS_MEMORY_OP[columns["ops"]] & (
            columns["addresses"] < 0
        )
        bad_memory = np.flatnonzero(memory_bad)
        first_memory_row = int(bad_memory[0]) if bad_memory.size else n
        if first_source_row >= n and first_memory_row >= n:
            return
        if first_source_row <= first_memory_row:
            row = first_source_row
            column = int(np.argmax(source_bad[row]))
            source = int(sources[row, column])
            if forward[row, column]:
                raise ValueError(
                    f"instruction {row} depends on {source} which is "
                    "not strictly earlier in the trace"
                )
            raise ValueError(
                f"instruction {row} depends on {source} which "
                "produces no register result"
            )
        raise ValueError(
            f"memory instruction {first_memory_row} has no address"
        )
