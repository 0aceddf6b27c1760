"""Block-templated trace emission: the vectorized kernel->trace path.

The DP inner loops the paper characterizes (the SSEARCH cell loop, the
banded Gotoh in FASTA/BLAST, the VMX striped wavefront) are
*structurally repetitive*: every iteration executes the same static
basic block, with only operand values, addresses, and a handful of
data-dependent branch outcomes changing.  SWAPHI and the SSW library
exploit exactly this regularity to turn scalar DP into bulk vector
work; this module applies the same idea to trace *emission*.

A kernel registers the static shape of its hot block once as an
:class:`EmitTemplate`: one :class:`SlotSpec` per instruction slot,
carrying the opcode, the emit site, the register-role wiring (how each
source operand relates to other slots, to loop-carried registers, or to
external registers), the memory address stride, and — for
data-dependent slots like the SWAT cutoffs — a *gate*: the name of a
per-iteration boolean mask supplied at stamp time.  The kernel's inner
loop then performs only the real algorithmic work in Python (the
scores must stay bit-identical to the reference implementations) and
calls :meth:`repro.isa.builder.TraceBuilder.stamp` once per block run;
the builder materializes every iteration as bulk NumPy column writes.

The contract is strict: a stamp must produce **byte-identical
columns** (hence content digests) to emitting the same iterations call
by call through the builder's per-instruction methods, including
synthetic pc assignment order, instruction-budget truncation semantics,
and count-only mode.  ``TraceBuilder._stamp_interpreted`` does exactly
that; it is the oracle the stamp fuzz tests compare against.

Source-operand references
-------------------------

======================  ================================================
``Reg(name)``           external register: ``operands[name]`` (an int,
                        or a per-iteration int array)
``Slot(k)``             the result of slot ``k`` in the *same* iteration
``Sel(k1, k2, ...)``    the most recent assignment within the iteration:
                        first *present* slot in the listed priority order
``Carry(ref, init)``    loop-carried register: the most recent emission
                        of ``ref`` (a slot index, ``Slot`` or ``Sel``) at
                        least ``lag`` iterations back, else ``init``
======================  ================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.isa.opcodes import MEMORY_OPS, OpClass
from repro.isa.trace import MAX_SOURCES

#: Opcode classes that produce no register result (mirrors the
#: TraceBuilder emit methods: stores and branches are destination-less).
_DESTLESS = frozenset({OpClass.ISTORE, OpClass.VSTORE, OpClass.CTRL})

#: Stamps shorter than this fall back to per-instruction interpretation:
#: below it the NumPy fixed costs exceed the per-instruction loop.
INTERPRET_BELOW = 8


class TemplateError(ValueError):
    """A template is malformed or was stamped with bad operands."""


# ----------------------------------------------------------------------
# Source references
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Reg:
    """External register: resolved from ``operands[name]`` at stamp time."""

    name: str


@dataclass(frozen=True)
class Slot:
    """The register produced by slot ``index`` of the same iteration."""

    index: int


@dataclass(frozen=True)
class Sel:
    """Latest-assignment select: the first present slot wins.

    ``Sel(a, b, c)`` resolves, per iteration, to slot ``a``'s result if
    slot ``a`` emitted this iteration, else slot ``b``'s, else slot
    ``c``'s — the vectorized equivalent of a register that conditional
    paths may or may not have overwritten.
    """

    choices: tuple[int, ...]

    def __init__(self, *choices: int) -> None:
        object.__setattr__(self, "choices", tuple(choices))


@dataclass(frozen=True)
class Carry:
    """Loop-carried register reference.

    Resolves to the most recent emission of ``ref`` at least ``lag``
    iterations before the current one (``lag=0`` includes the current
    iteration), falling back to ``init`` — a :class:`Reg` or a literal
    trace index — before the first emission.
    """

    ref: "Slot | Sel | int"
    init: "Reg | int"
    lag: int = 1


SourceRef = Any  # Reg | Slot | Sel | Carry | int


# ----------------------------------------------------------------------
# Slot and template specification
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SlotSpec:
    """Static shape of one instruction slot of a templated block.

    ``base``/``scale``/``index``/``offset`` describe an affine address
    ``operands[base] + scale * operands[index] + offset`` (``index``
    defaults to the iteration number); ``addr`` names an operand array
    holding fully materialized per-iteration addresses instead.  Gates
    name boolean operand arrays; ``taken`` is a static outcome or the
    name of a per-iteration outcome array.
    """

    op: OpClass
    site: str
    sources: tuple[SourceRef, ...] = ()
    gate: str | None = None
    addr: str | None = None
    base: str | None = None
    scale: int = 0
    index: str | None = None
    offset: int = 0
    size: int = 0
    taken: str | bool = False
    backward: bool = False
    key: str | None = None

    @property
    def has_dest(self) -> bool:
        return self.op not in _DESTLESS

    @property
    def is_memory(self) -> bool:
        return self.op in MEMORY_OPS

    @property
    def is_ctrl(self) -> bool:
        return self.op is OpClass.CTRL


def _ref_slots(ref: SourceRef) -> tuple[int, ...]:
    """Slot indices a source reference reads (for validation)."""
    if isinstance(ref, Slot):
        return (ref.index,)
    if isinstance(ref, Sel):
        return ref.choices
    if isinstance(ref, Carry):
        inner = ref.ref
        if isinstance(inner, int):
            return (inner,)
        return _ref_slots(inner)
    return ()


class EmitTemplate:
    """A compiled block template ready for bulk stamping.

    Compilation validates the static structure once — source arity,
    slot-reference ordering, destination-ness of referenced producers,
    memory/branch field consistency — so the per-stamp hot path does no
    checking beyond data-dependent gate coverage.
    """

    def __init__(self, name: str, slots: Sequence[SlotSpec]) -> None:
        self.name = name
        self.slots = tuple(slots)
        self._by_key: dict[str, int] = {}
        if not self.slots:
            raise TemplateError(f"template {name!r} has no slots")
        for position, slot in enumerate(self.slots):
            if len(slot.sources) > MAX_SOURCES:
                raise TemplateError(
                    f"template {name!r} slot {position} ({slot.site}) has "
                    f"{len(slot.sources)} sources; the trace layout stores "
                    f"at most {MAX_SOURCES}"
                )
            if slot.is_memory:
                if slot.addr is None and slot.base is None and not slot.scale:
                    raise TemplateError(
                        f"template {name!r} slot {position} ({slot.site}) is "
                        "a memory op without an address spec"
                    )
                if slot.size <= 0:
                    raise TemplateError(
                        f"template {name!r} slot {position} ({slot.site}) is "
                        "a memory op without an access size"
                    )
            elif slot.addr is not None or slot.base is not None or slot.size:
                raise TemplateError(
                    f"template {name!r} slot {position} ({slot.site}) is "
                    "not a memory op but carries an address spec"
                )
            for ref in slot.sources:
                if isinstance(ref, Carry) and ref.lag < 0:
                    raise TemplateError(
                        f"template {name!r} slot {position} ({slot.site}) "
                        f"carries with negative lag {ref.lag}"
                    )
                for target in _ref_slots(ref):
                    if not 0 <= target < len(self.slots):
                        raise TemplateError(
                            f"template {name!r} slot {position} references "
                            f"undefined slot {target}"
                        )
                    if not self.slots[target].has_dest:
                        raise TemplateError(
                            f"template {name!r} slot {position} references "
                            f"slot {target} ({self.slots[target].site}), "
                            "which produces no register result"
                        )
                    if (
                        not isinstance(ref, Carry) or ref.lag <= 0
                    ) and target >= position:
                        raise TemplateError(
                            f"template {name!r} slot {position} references "
                            f"slot {target}, which is not earlier in the "
                            "iteration (use a lagged Carry for loop-carried "
                            "values)"
                        )
            if slot.key is not None:
                if slot.key in self._by_key:
                    raise TemplateError(
                        f"template {name!r} has duplicate slot key "
                        f"{slot.key!r}"
                    )
                self._by_key[slot.key] = position
        #: Per-slot uint8 opcodes / dest flags (used by stamping + TR011).
        self.ops = np.array([int(s.op) for s in self.slots], dtype=np.uint8)
        self.dests = np.array(
            [1 if s.has_dest else 0 for s in self.slots], dtype=np.uint8
        )
        self.sizes = np.array([s.size for s in self.slots], dtype=np.int32)

    def __len__(self) -> int:
        return len(self.slots)

    def __repr__(self) -> str:
        return f"EmitTemplate({self.name!r}, {len(self.slots)} slots)"

    def slot_index(self, key: str) -> int:
        """Position of the slot registered under ``key``."""
        return self._by_key[key]


@dataclass(frozen=True)
class StampRegion:
    """One template-stamped span of a finished trace (TR011's input).

    ``slot_of[i]`` is the template slot that produced instruction
    ``start + i``; together with the template it lets the linter
    revalidate the whole region without any per-instruction records.
    """

    start: int
    template: EmitTemplate
    slot_of: np.ndarray  # uint16, one entry per instruction in the region

    @property
    def stop(self) -> int:
        return self.start + len(self.slot_of)


@dataclass
class StampResult:
    """What a stamp call hands back to the kernel.

    ``last`` lets kernels thread loop-carried registers across stamps
    and into the surrounding per-call emissions (the SSA index of a
    slot's final emission stands for the register it left behind).
    """

    start: int
    count: int
    _last: list[int] | None = field(default=None, repr=False)

    def last(self, slot: int, default: int = 0) -> int:
        """Trace index of ``slot``'s final emission, else ``default``.

        In count-only mode (no recorded indices) always ``default`` —
        mirroring the per-call emit methods, which return 0 there.
        """
        if self._last is None:
            return default
        value = self._last[slot]
        return default if value < 0 else value


# ----------------------------------------------------------------------
# Vectorized stamping
# ----------------------------------------------------------------------

def _as_bool_mask(value: Any, n: int, name: str) -> np.ndarray:
    mask = np.asarray(value)
    if mask.dtype != np.bool_:
        mask = mask.astype(bool)
    if mask.shape != (n,):
        raise TemplateError(
            f"gate/outcome {name!r} has shape {mask.shape}, expected ({n},)"
        )
    return mask


def _as_index_array(value: Any, n: int, name: str) -> np.ndarray | int:
    if isinstance(value, (int, np.integer)):
        return int(value)
    array = np.asarray(value, dtype=np.int64)
    if array.shape != (n,):
        raise TemplateError(
            f"operand {name!r} has shape {array.shape}, expected ({n},)"
        )
    return array


class _Layout:
    """Iteration-space layout shared by the column writers.

    Computes, fully vectorized: how many instructions each iteration
    emits, where every iteration starts in the output stream, and the
    per-iteration trace index of every slot (``-1`` where gated off).
    """

    def __init__(
        self,
        template: EmitTemplate,
        n: int,
        operands: Mapping[str, Any],
        base_index: int,
    ) -> None:
        self.template = template
        self.n = n
        self.base = base_index
        slots = template.slots
        self.masks: list[np.ndarray | None] = []
        for slot in slots:
            if slot.gate is None:
                self.masks.append(None)
            else:
                try:
                    gate = operands[slot.gate]
                except KeyError:
                    raise TemplateError(
                        f"stamp of {template.name!r} missing gate operand "
                        f"{slot.gate!r}"
                    ) from None
                self.masks.append(_as_bool_mask(gate, n, slot.gate))
        counts = np.zeros(n, dtype=np.int64)
        for mask in self.masks:
            if mask is None:
                counts += 1
            else:
                counts += mask
        starts = np.empty(n + 1, dtype=np.int64)
        starts[0] = 0
        np.cumsum(counts, out=starts[1:])
        self.total = int(starts[n])
        #: Global trace index per (slot, iteration); -1 where absent.
        self.indices: list[np.ndarray] = []
        position = np.zeros(n, dtype=np.int64)
        iter_base = starts[:n] + base_index
        for mask in self.masks:
            here = iter_base + position
            if mask is None:
                self.indices.append(here)
                position += 1
            else:
                self.indices.append(np.where(mask, here, -1))
                position += mask

    def present_only(self, slot: int, values: Any) -> Any:
        """Compress a full-length per-iteration array to present rows."""
        mask = self.masks[slot]
        if mask is None or isinstance(values, (int, np.integer)):
            return values
        return values[mask]

    def relative(self, slot: int) -> np.ndarray:
        """Output-chunk row numbers of ``slot``'s present emissions."""
        mask = self.masks[slot]
        index = self.indices[slot]
        if mask is not None:
            index = index[mask]
        return index - self.base

    def first_index(self, slot: int) -> int:
        """Global index of the slot's first emission, or -1 if absent."""
        mask = self.masks[slot]
        if mask is None:
            return int(self.indices[slot][0]) if self.n else -1
        hits = np.flatnonzero(mask)
        return int(self.indices[slot][hits[0]]) if hits.size else -1

    def last_index(self, slot: int) -> int:
        """Global index of the slot's final emission, or -1 if absent."""
        mask = self.masks[slot]
        if mask is None:
            return int(self.indices[slot][-1]) if self.n else -1
        hits = np.flatnonzero(mask)
        return int(self.indices[slot][hits[-1]]) if hits.size else -1

    # ------------------------------------------------------------------
    # Source-reference resolution (full-length arrays; -1 where absent)
    # ------------------------------------------------------------------
    def _masked_indices(self, ref: Slot | Sel | int) -> np.ndarray:
        if isinstance(ref, int):
            return self.indices[ref]
        if isinstance(ref, Slot):
            return self.indices[ref.index]
        out: np.ndarray | None = None
        for choice in reversed(ref.choices):
            mask = self.masks[choice]
            if out is None:
                out = (
                    self.indices[choice]
                    if mask is None
                    else np.where(mask, self.indices[choice], -1)
                )
            elif mask is None:
                out = self.indices[choice]
            else:
                out = np.where(mask, self.indices[choice], out)
        assert out is not None
        return out

    def resolve(
        self, ref: SourceRef, operands: Mapping[str, Any],
        cache: dict[int, Any],
    ) -> np.ndarray | int:
        """Full-length per-iteration source values for ``ref``."""
        memo = cache.get(id(ref))
        if memo is not None:
            return memo
        if isinstance(ref, (int, np.integer)):
            value: np.ndarray | int = int(ref)
        elif isinstance(ref, Reg):
            try:
                value = _as_index_array(operands[ref.name], self.n, ref.name)
            except KeyError:
                raise TemplateError(
                    f"stamp of {self.template.name!r} missing register "
                    f"operand {ref.name!r}"
                ) from None
        elif isinstance(ref, (Slot, Sel)):
            value = self._masked_indices(ref)
        elif isinstance(ref, Carry):
            trail = self._masked_indices(ref.ref)
            lag = ref.lag
            if lag > 0:
                shifted = np.empty_like(trail)
                shifted[:lag] = -1
                if lag < self.n:
                    shifted[lag:] = trail[: self.n - lag]
                trail = shifted
            # Emission indices grow with the iteration number, so a
            # running maximum is exactly "most recent emission so far".
            filled = np.maximum.accumulate(trail)
            init = self.resolve(ref.init, operands, cache)
            value = np.where(filled < 0, init, filled)
        else:
            raise TemplateError(f"unknown source reference {ref!r}")
        cache[id(ref)] = value
        return value


def stamp_columns(
    template: EmitTemplate,
    n: int,
    operands: Mapping[str, Any],
    base_index: int,
    pc_of,
) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray, list[int]]:
    """Materialize ``n`` iterations of ``template`` as column chunks.

    Returns ``(columns, slot_of, op_counts, last_indices)``:
    the eight SoA columns for the stamped span, the producing slot of
    every instruction (for :class:`StampRegion`), per-:class:`OpClass`
    dynamic counts, and each slot's final emission index.

    ``pc_of`` is called in order of each site's *first emission*, which
    keeps synthetic pc assignment identical to per-call emission (where a
    site's pc is allocated at its first dynamic occurrence).
    """
    layout = _Layout(template, n, operands, base_index)
    total = layout.total
    slots = template.slots

    # Synthetic pcs, allocated in first-emission order.
    order = sorted(
        (
            (layout.first_index(k), k)
            for k in range(len(slots))
            if layout.first_index(k) >= 0
        ),
    )
    pcs_of_slot = [0] * len(slots)
    for _, k in order:
        pcs_of_slot[k] = pc_of(slots[k].site)

    ops = np.empty(total, dtype=np.uint8)
    pcs = np.empty(total, dtype=np.int64)
    dests = np.zeros(total, dtype=np.uint8)
    addresses = np.full(total, -1, dtype=np.int64)
    sizes = np.zeros(total, dtype=np.int32)
    takens = np.zeros(total, dtype=np.uint8)
    targets = np.zeros(total, dtype=np.int64)
    sources = np.full((total, MAX_SOURCES), -1, dtype=np.int64)
    slot_of = np.empty(total, dtype=np.uint16)

    iota: np.ndarray | None = None
    cache: dict[int, Any] = {}
    last_indices: list[int] = []
    for k, slot in enumerate(slots):
        last_indices.append(layout.last_index(k))
        rel = layout.relative(k)
        if not rel.size:
            continue
        ops[rel] = int(slot.op)
        pcs[rel] = pcs_of_slot[k]
        slot_of[rel] = k
        if slot.has_dest:
            dests[rel] = 1
        if slot.is_memory:
            if slot.addr is not None:
                address = _as_index_array(operands[slot.addr], n, slot.addr)
            else:
                base = (
                    _as_index_array(operands[slot.base], n, slot.base)
                    if slot.base is not None
                    else 0
                )
                if slot.scale:
                    if slot.index is not None:
                        index = _as_index_array(
                            operands[slot.index], n, slot.index
                        )
                    else:
                        if iota is None:
                            iota = np.arange(n, dtype=np.int64)
                        index = iota
                    address = base + slot.scale * index + slot.offset
                else:
                    address = base + slot.offset
            if isinstance(address, (int, np.integer)):
                addresses[rel] = int(address)
            else:
                addresses[rel] = layout.present_only(k, address)
            sizes[rel] = slot.size
        if slot.is_ctrl:
            pc = pcs_of_slot[k]
            targets[rel] = pc - 128 if slot.backward else pc + 64
            taken = slot.taken
            if isinstance(taken, str):
                try:
                    outcome = operands[taken]
                except KeyError:
                    raise TemplateError(
                        f"stamp of {template.name!r} missing outcome "
                        f"operand {taken!r}"
                    ) from None
                takens[rel] = layout.present_only(
                    k, _as_bool_mask(outcome, n, taken)
                )
            elif taken:
                takens[rel] = 1
        for j, ref in enumerate(slot.sources):
            value = layout.resolve(ref, operands, cache)
            if isinstance(value, (int, np.integer)):
                sources[rel, j] = int(value)
            else:
                present = layout.present_only(k, value)
                if isinstance(ref, (Slot, Sel, Carry)) and (
                    np.min(present, initial=0) < 0
                ):
                    raise TemplateError(
                        f"template {template.name!r} slot {k} "
                        f"({slot.site}) reads {ref!r} in an iteration "
                        "where no referenced slot emitted"
                    )
                sources[rel, j] = present

    op_counts = np.bincount(ops, minlength=len(OpClass)).astype(np.int64)
    columns = {
        "ops": ops,
        "pcs": pcs,
        "dests": dests,
        "addresses": addresses,
        "sizes": sizes,
        "takens": takens,
        "targets": targets,
        "sources": sources,
    }
    return columns, slot_of, op_counts, last_indices


def count_stream(
    template: EmitTemplate, n: int, operands: Mapping[str, Any]
) -> tuple[np.ndarray, list[tuple[int, np.ndarray | None]]]:
    """Count-only stamping support: per-op totals plus presence masks.

    Returns the per-:class:`OpClass` dynamic counts of the full stamp
    and the ``(slot, mask)`` list needed to locate the instruction at
    any stream position (for exact budget-overflow semantics).
    """
    counts = np.zeros(len(OpClass), dtype=np.int64)
    presence: list[tuple[int, np.ndarray | None]] = []
    for slot, spec in zip(range(len(template.slots)), template.slots):
        gate = template.slots[slot].gate
        if gate is None:
            counts[int(spec.op)] += n
            presence.append((slot, None))
        else:
            try:
                mask = _as_bool_mask(operands[gate], n, gate)
            except KeyError:
                raise TemplateError(
                    f"stamp of {template.name!r} missing gate operand "
                    f"{gate!r}"
                ) from None
            counts[int(spec.op)] += int(mask.sum())
            presence.append((slot, mask))
    return counts, presence


def stream_position(
    template: EmitTemplate,
    n: int,
    presence: list[tuple[int, np.ndarray | None]],
    position: int,
) -> tuple[int, int]:
    """Locate stream ``position``: returns ``(iteration, slot)``.

    Used when an instruction budget expires mid-stamp: per-call emission
    counts the first over-budget instruction before raising, so the
    stamp must identify exactly which slot that would have been.
    """
    lengths = np.zeros(n, dtype=np.int64)
    for _, mask in presence:
        if mask is None:
            lengths += 1
        else:
            lengths += mask
    starts = np.concatenate(([0], np.cumsum(lengths)))
    iteration = int(np.searchsorted(starts, position, side="right")) - 1
    within = position - int(starts[iteration])
    for slot, mask in presence:
        if mask is not None and not mask[iteration]:
            continue
        if within == 0:
            return iteration, slot
        within -= 1
    raise TemplateError(
        f"stream position {position} beyond iteration {iteration} "
        f"of template {template.name!r}"
    )
