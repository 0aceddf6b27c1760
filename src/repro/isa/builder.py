"""Instrumented-execution trace builder.

Traced kernels (:mod:`repro.kernels`) run the real alignment algorithms
while narrating every abstract operation to a :class:`TraceBuilder`:
each ``ialu``/``iload``/``ctrl``/``vsimple``/... call appends one
dynamic instruction carrying its true data dependencies (producer trace
indices), its effective memory address, or its actual branch outcome.
The result is a trace whose instruction mix, locality, and branch
behaviour *emerge* from executing the algorithm on real data — the
stand-in for the paper's Aria/MET-generated PowerPC traces.

Emit methods return the new instruction's index, which doubles as the
SSA virtual register holding the result; kernels thread those indices
through their computations exactly like register names.

``record=False`` turns the builder into a counting sink for very large
measurements (Table III trace sizes, Fig. 1 mixes at scale) where the
per-instruction records are not needed.

Recording emits one compact row tuple per instruction into a growing
list; :meth:`TraceBuilder.build` converts the rows to the columnar
NumPy layout that :class:`~repro.isa.trace.Trace` stores natively in a
single vectorized pass — no per-instruction Python objects are ever
created on the kernel hot path.

Structurally repetitive inner loops skip the per-call path: a kernel
registers the static shape of its hot block as an
:class:`~repro.isa.emit.EmitTemplate` and calls :meth:`TraceBuilder.stamp`
to materialize whole loop runs as bulk NumPy column chunks (see
:mod:`repro.isa.emit`).  Every kernel emits its inner loops that way
and keeps the per-call methods for the short, data-dependent code
between stamps; runs shorter than
:data:`~repro.isa.emit.INTERPRET_BELOW` iterations are interpreted slot
by slot through the same per-call path.
"""

from __future__ import annotations

import numpy as np

from repro.isa import emit as emit_mod
from repro.isa.emit import (
    Carry,
    EmitTemplate,
    Reg,
    Sel,
    Slot,
    StampRegion,
    StampResult,
    TemplateError,
)
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass
from repro.isa.trace import MAX_SOURCES, InstructionMix, Trace, concat_columns

__all__ = [
    "CODE_BASE",
    "DATA_BASE",
    "Carry",
    "EmitTemplate",
    "Reg",
    "Sel",
    "Slot",
    "TraceBudgetExceededError",
    "TraceBuilder",
]

#: Base of the synthetic code segment (site pcs) and data segment.
CODE_BASE = 0x0001_0000
DATA_BASE = 0x1000_0000


class TraceBudgetExceededError(RuntimeError):
    """Raised by the builder when the instruction budget is exhausted.

    Kernels let this propagate to their driver, which finalizes the
    truncated trace — mirroring how the paper samples a representative
    window out of a billions-long execution.
    """


class TraceBuilder:
    """Collects dynamic instructions emitted by a traced kernel."""

    def __init__(
        self,
        name: str,
        record: bool = True,
        limit: int | None = None,
    ) -> None:
        self.name = name
        self.record = record
        self.limit = limit
        #: One row tuple per recorded instruction:
        #: (op, pc, has_dest, address, size, taken, target, s0, s1, s2).
        self._rows: list[tuple] = []
        #: Finished column chunks (flushed per-call rows + template stamps).
        self._chunks: list[dict[str, np.ndarray]] = []
        #: Instructions already flushed into ``_chunks``.
        self._flushed = 0
        #: Template-stamped spans, for TR011 revalidation.
        self._regions: list[StampRegion] = []
        self.counts = [0] * len(OpClass)
        self.total = 0
        self._site_pcs: dict[str, int] = {}
        self._data_cursor = DATA_BASE

    @property
    def instructions(self) -> list[Instruction]:
        """Recorded instructions as objects (tests/debugging only)."""
        if not self.record:
            return []
        return self.build().instructions

    # ------------------------------------------------------------------
    # Memory layout
    # ------------------------------------------------------------------
    def alloc(self, label: str, nbytes: int, align: int = 128) -> int:
        """Reserve a data region; returns its base address.

        Regions are laid out sequentially with cache-line alignment,
        approximating the heap layout of the native tools.  ``label``
        is only for debugging.
        """
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        mask = align - 1
        base = (self._data_cursor + mask) & ~mask
        self._data_cursor = base + nbytes
        return base

    # ------------------------------------------------------------------
    # Site management
    # ------------------------------------------------------------------
    def pc_of(self, site: str) -> int:
        """Synthetic pc of a static emit site (stable per label)."""
        pc = self._site_pcs.get(site)
        if pc is None:
            pc = CODE_BASE + 4 * len(self._site_pcs)
            self._site_pcs[site] = pc
        return pc

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def _emit(
        self,
        op: OpClass,
        site: str,
        sources: tuple[int, ...],
        has_dest: bool,
        address: int = -1,
        size: int = 0,
        taken: bool = False,
        target: int = 0,
    ) -> int:
        self.counts[op] += 1
        self.total += 1
        if self.limit is not None and self.total > self.limit:
            raise TraceBudgetExceededError(
                f"trace {self.name!r} exceeded {self.limit} instructions"
            )
        if not self.record:
            return 0
        count = len(sources)
        if count == 0:
            s0 = s1 = s2 = -1
        elif count == 1:
            s0, = sources
            s1 = s2 = -1
        elif count == 2:
            s0, s1 = sources
            s2 = -1
        elif count == 3:
            s0, s1, s2 = sources
        else:
            raise ValueError(
                f"instruction has {count} sources; "
                f"the trace layout stores at most {MAX_SOURCES}"
            )
        rows = self._rows
        index = self._flushed + len(rows)
        rows.append(
            (op, self.pc_of(site), has_dest, address, size, taken, target,
             s0, s1, s2)
        )
        return index

    def ialu(self, site: str, sources: tuple[int, ...] = ()) -> int:
        """Integer ALU op producing a result register."""
        return self._emit(OpClass.IALU, site, sources, has_dest=True)

    def iload(
        self, site: str, address: int, sources: tuple[int, ...] = (), size: int = 8
    ) -> int:
        """Scalar load from ``address``."""
        return self._emit(
            OpClass.ILOAD, site, sources, has_dest=True, address=address, size=size
        )

    def istore(
        self, site: str, address: int, sources: tuple[int, ...] = (), size: int = 8
    ) -> int:
        """Scalar store to ``address`` (no result register)."""
        return self._emit(
            OpClass.ISTORE, site, sources, has_dest=False, address=address, size=size
        )

    def ctrl(
        self,
        site: str,
        taken: bool,
        sources: tuple[int, ...] = (),
        backward: bool = False,
    ) -> int:
        """Conditional branch with its actual outcome.

        ``backward=True`` marks loop back-edges (target behind the
        branch), which matters to the next-fetch-address predictor.
        """
        pc = self.pc_of(site)
        target = pc - 128 if backward else pc + 64
        return self._emit(
            OpClass.CTRL, site, sources, has_dest=False, taken=taken, target=target
        )

    def vload(
        self, site: str, address: int, sources: tuple[int, ...] = (), size: int = 16
    ) -> int:
        """Vector load (16 bytes for vmx128, 32 for vmx256)."""
        return self._emit(
            OpClass.VLOAD, site, sources, has_dest=True, address=address, size=size
        )

    def vstore(
        self, site: str, address: int, sources: tuple[int, ...] = (), size: int = 16
    ) -> int:
        """Vector store."""
        return self._emit(
            OpClass.VSTORE, site, sources, has_dest=False, address=address, size=size
        )

    def vsimple(self, site: str, sources: tuple[int, ...] = ()) -> int:
        """Vector simple-integer op (vec_adds, vec_subs, vec_max...)."""
        return self._emit(OpClass.VSIMPLE, site, sources, has_dest=True)

    def vperm(self, site: str, sources: tuple[int, ...] = ()) -> int:
        """Vector permute op (vec_perm, vec_sld, splats)."""
        return self._emit(OpClass.VPERM, site, sources, has_dest=True)

    def vcmplx(self, site: str, sources: tuple[int, ...] = ()) -> int:
        """Vector complex-integer op (multiply-sum family)."""
        return self._emit(OpClass.VCMPLX, site, sources, has_dest=True)

    def fpu(self, site: str, sources: tuple[int, ...] = ()) -> int:
        """Scalar floating-point op."""
        return self._emit(OpClass.FPU, site, sources, has_dest=True)

    def other(self, site: str, sources: tuple[int, ...] = ()) -> int:
        """Miscellaneous op (system/special-register moves)."""
        return self._emit(OpClass.OTHER, site, sources, has_dest=True)

    # ------------------------------------------------------------------
    # Block-templated emission (the vectorized fast path)
    # ------------------------------------------------------------------
    def _flush_rows(self) -> None:
        """Convert pending per-call rows into a finished column chunk."""
        rows = self._rows
        if not rows:
            return
        table = np.array(rows, dtype=np.int64)
        self._chunks.append({
            "ops": table[:, 0].astype(np.uint8),
            "pcs": np.ascontiguousarray(table[:, 1]),
            "dests": table[:, 2].astype(np.uint8),
            "addresses": np.ascontiguousarray(table[:, 3]),
            "sizes": table[:, 4].astype(np.int32),
            "takens": table[:, 5].astype(np.uint8),
            "targets": np.ascontiguousarray(table[:, 6]),
            "sources": np.ascontiguousarray(table[:, 7:7 + MAX_SOURCES]),
        })
        self._flushed += len(rows)
        rows.clear()

    def _merge_counts(self, op_counts: np.ndarray) -> None:
        counts = self.counts
        for op in np.flatnonzero(op_counts):
            counts[op] += int(op_counts[op])

    def stamp(
        self,
        template: EmitTemplate,
        n: int,
        operands: dict | None = None,
    ) -> StampResult:
        """Emit ``n`` iterations of ``template`` in bulk.

        The streamed instructions — opcode order, synthetic pcs, register
        wiring, addresses, branch outcomes, budget truncation — are
        byte-identical to what per-call emission of the same block would
        produce; only the materialization is vectorized.  Short runs
        (fewer than :data:`repro.isa.emit.INTERPRET_BELOW` iterations)
        are interpreted per instruction, where NumPy's fixed costs would
        exceed the per-instruction loop.

        Returns a :class:`~repro.isa.emit.StampResult` whose ``last``
        method maps slots to their final emission index, so kernels can
        thread loop-carried registers across stamps and into the
        surrounding per-call emissions.
        """
        operands = operands or {}
        n_slots = len(template.slots)
        if n <= 0:
            return StampResult(
                start=self._flushed + len(self._rows),
                count=0,
                _last=[-1] * n_slots if self.record else None,
            )
        if not self.record:
            return self._stamp_count_only(template, n, operands)
        if n < emit_mod.INTERPRET_BELOW:
            return self._stamp_interpreted(template, n, operands)

        base = self._flushed + len(self._rows)
        columns, slot_of, op_counts, last = emit_mod.stamp_columns(
            template, n, operands, base, self.pc_of
        )
        total_new = len(slot_of)
        before = self.total
        if self.limit is not None and before + total_new > self.limit:
            fit = self.limit - before
            # Per-call emission counts the first over-budget instruction
            # before raising; reproduce that bookkeeping exactly.
            kept_counts = np.bincount(
                columns["ops"][:fit + 1], minlength=len(OpClass)
            )
            self._merge_counts(kept_counts)
            self.total = before + fit + 1
            if fit:
                self._flush_rows()
                self._chunks.append(
                    {name: col[:fit] for name, col in columns.items()}
                )
                self._regions.append(
                    StampRegion(base, template, slot_of[:fit])
                )
                self._flushed += fit
            raise TraceBudgetExceededError(
                f"trace {self.name!r} exceeded {self.limit} instructions"
            )
        self._merge_counts(op_counts)
        self.total = before + total_new
        self._flush_rows()
        self._chunks.append(columns)
        self._regions.append(StampRegion(base, template, slot_of))
        self._flushed += total_new
        return StampResult(start=base, count=total_new, _last=last)

    def _stamp_count_only(
        self, template: EmitTemplate, n: int, operands: dict
    ) -> StampResult:
        """Count-only stamping with exact budget-overflow semantics."""
        op_counts, presence = emit_mod.count_stream(template, n, operands)
        total_new = int(op_counts.sum())
        before = self.total
        if self.limit is not None and before + total_new > self.limit:
            fit = self.limit - before
            iteration, over_slot = emit_mod.stream_position(
                template, n, presence, fit
            )
            # Per-op counts of the first ``fit`` instructions, plus the
            # over-budget one itself (per-call emission counts it first).
            partial = np.zeros(len(OpClass), dtype=np.int64)
            for slot, mask in presence:
                op = int(template.slots[slot].op)
                emitted = (
                    iteration if mask is None else int(mask[:iteration].sum())
                )
                if slot < over_slot and (
                    mask is None or bool(mask[iteration])
                ):
                    emitted += 1
                partial[op] += emitted
            partial[int(template.slots[over_slot].op)] += 1
            self._merge_counts(partial)
            self.total = before + fit + 1
            raise TraceBudgetExceededError(
                f"trace {self.name!r} exceeded {self.limit} instructions"
            )
        self._merge_counts(op_counts)
        self.total = before + total_new
        return StampResult(start=0, count=total_new, _last=None)

    def _stamp_interpreted(
        self, template: EmitTemplate, n: int, operands: dict
    ) -> StampResult:
        """Per-instruction reference interpretation of a template stamp.

        Shares no materialization code with the vectorized path — it
        walks the slots iteration by iteration through :meth:`_emit` —
        which makes it both the short-run fast path and the oracle the
        stamp fuzz tests compare :func:`repro.isa.emit.stamp_columns`
        against.
        """
        # Per-item indexing dominates at these run lengths, and Python
        # lists index an order of magnitude faster than NumPy arrays.
        operands = {
            name: value.tolist() if isinstance(value, np.ndarray) else value
            for name, value in operands.items()
        }
        slots = template.slots
        base = self._flushed + len(self._rows)
        #: by_iter[k][i] = trace index of slot k's iteration-i emission.
        by_iter: list[list[int]] = [[-1] * n for _ in slots]
        last = [-1] * len(slots)
        slot_of: list[int] = []
        iota = None

        def choices_of(ref) -> tuple[int, ...]:
            if isinstance(ref, int):
                return (ref,)
            if isinstance(ref, Slot):
                return (ref.index,)
            return ref.choices

        def resolve(i: int, ref) -> int:
            if isinstance(ref, int):
                return ref
            if isinstance(ref, Reg):
                value = operands[ref.name]
                if isinstance(value, (int, np.integer)):
                    return int(value)
                return int(value[i])
            if isinstance(ref, (Slot, Sel)):
                # First *present* choice this iteration, priority order.
                for k in choices_of(ref):
                    index = by_iter[k][i]
                    if index >= 0:
                        return index
                raise TemplateError(
                    f"template {template.name!r} reads {ref!r} in "
                    f"iteration {i} where no referenced slot emitted"
                )
            if isinstance(ref, Carry):
                # Priority pick at the latest iteration <= i - lag where
                # any choice emitted (indices grow monotonically, so
                # this matches the vectorized running-maximum).
                choices = choices_of(ref.ref)
                for when in range(i - ref.lag, -1, -1):
                    for k in choices:
                        index = by_iter[k][when]
                        if index >= 0:
                            return index
                return resolve(i, ref.init)
            raise TemplateError(f"unknown source reference {ref!r}")

        try:
            for i in range(n):
                for k, slot in enumerate(slots):
                    if slot.gate is not None and not bool(
                        operands[slot.gate][i]
                    ):
                        continue
                    sources = tuple(
                        resolve(i, ref) for ref in slot.sources
                    )
                    address = -1
                    size = 0
                    if slot.is_memory:
                        if slot.addr is not None:
                            address = int(operands[slot.addr][i])
                        else:
                            address = slot.offset
                            if slot.base is not None:
                                value = operands[slot.base]
                                address += (
                                    int(value)
                                    if isinstance(value, (int, np.integer))
                                    else int(value[i])
                                )
                            if slot.scale:
                                if slot.index is not None:
                                    step = int(operands[slot.index][i])
                                else:
                                    if iota is None:
                                        iota = range(n)
                                    step = i
                                address += slot.scale * step
                        size = slot.size
                    taken = False
                    target = 0
                    if slot.is_ctrl:
                        outcome = slot.taken
                        taken = (
                            bool(operands[outcome][i])
                            if isinstance(outcome, str)
                            else bool(outcome)
                        )
                        pc = self.pc_of(slot.site)
                        target = pc - 128 if slot.backward else pc + 64
                    index = self._emit(
                        slot.op,
                        slot.site,
                        sources,
                        has_dest=slot.has_dest,
                        address=address,
                        size=size,
                        taken=taken,
                        target=target,
                    )
                    by_iter[k][i] = index
                    last[k] = index
                    slot_of.append(k)
        finally:
            if slot_of:
                self._regions.append(StampRegion(
                    base, template, np.array(slot_of, dtype=np.uint16)
                ))
        return StampResult(start=base, count=len(slot_of), _last=last)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def mix(self) -> InstructionMix:
        """Instruction breakdown (valid in both modes)."""
        return InstructionMix(counts=tuple(self.counts))

    def build(self, *, strict: bool = False) -> Trace:
        """Finalize into a columnar :class:`Trace` (recording mode only).

        With ``strict=True`` the finished trace is linted
        (:func:`repro.verify.check_trace`) before being returned — the
        development gate for new kernels, catching malformed emissions
        (forward dependencies, missing addresses, phantom dest flags)
        at build time rather than as skewed statistics later.
        """
        if not self.record:
            raise ValueError(
                "builder is in count-only mode; use mix() for statistics"
            )
        self._flush_rows()
        trace = Trace(self.name, columns=concat_columns(self._chunks))
        trace.stamped_regions = tuple(self._regions)
        if strict:
            from repro.verify import check_trace

            check_trace(trace)
        return trace
