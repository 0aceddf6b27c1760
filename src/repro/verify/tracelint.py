"""TraceLint: static well-formedness checks over columnar traces.

Every measurement in the reproduction — instruction mixes, dependency
stalls, cache behaviour — is only meaningful if the dynamic traces the
kernels emit are well-formed.  This module verifies that *without
running the simulator*: each rule is a vectorized pass over the eight
SoA columns (:data:`repro.isa.trace.COLUMN_DTYPES`) or over the cached
:class:`~repro.uarch.pipeline.decode.DecodedTrace` plane.

Rules (see ``docs/verify.md`` for the full catalogue):

======  ==============================================================
TR001   every opcode maps to a known functional unit and latency
TR002   register def-before-use: dependencies point strictly backward
        and producers write a register
TR003   source tuples are canonical (``-1`` padding trailing only,
        on-disk width)
TR004   memory operands: address/size agree with the load/store class,
        stay inside the modeled address space, and respect per-class
        alignment
TR005   branch operands: taken flags and targets appear only on CTRL
TR006   destination flags agree with the opcode's register-file class
TR007   column schema: all eight columns, pinned dtypes, equal length
TR008   recomputed content digest matches the expected digest
TR009   serialize -> load round-trips column-byte-identically
TR010   the cached decode plane agrees with the columns
TR011   template-stamped regions match their emit templates (per-slot
        opcode/dest/size, constant distinct pcs, control targets)
======  ==============================================================

The checks are deliberately *independent recomputations*: TR010, for
example, re-derives functional units and memory word spans from the
authoritative :mod:`repro.isa.opcodes` tables rather than trusting the
decode module's private lookup arrays.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.isa.opcodes import (
    FU_OF_OPCLASS,
    LATENCY_OF_OPCLASS,
    LOAD_OPS,
    MEMORY_OPS,
    STORE_OPS,
    OpClass,
)
from repro.isa.trace import COLUMN_DTYPES, MAX_SOURCES, Trace

#: Synthetic segment bases (mirrors repro.isa.builder; imported lazily
#: there to keep this module import-light for the strict hooks).
CODE_SEGMENT_BASE = 0x0001_0000
DATA_SEGMENT_BASE = 0x1000_0000

#: Upper bound of the modeled (48-bit) address space.
ADDRESS_SPACE_LIMIT = 1 << 47

#: Legal access widths per ISA class: scalar memory ops move 1-8 bytes,
#: vector ops a full 16-byte VMX register (32 for an uncracked
#: double-width access).  Sub-word scalar accesses must be naturally
#: aligned; wider accesses may be unaligned (AltiVec-era kernels lean
#: on unaligned vector loads, and the golden traces contain them).
SCALAR_MEMORY_SIZES = frozenset({1, 2, 4, 8})
VECTOR_MEMORY_SIZES = frozenset({16, 32})
ALIGNED_BELOW = 4

_N_OPS = len(OpClass)
_MEMORY_MASK = np.zeros(_N_OPS, dtype=bool)
_MEMORY_MASK[[int(op) for op in MEMORY_OPS]] = True
_LOAD_MASK = np.zeros(_N_OPS, dtype=bool)
_LOAD_MASK[[int(op) for op in LOAD_OPS]] = True
_STORE_MASK = np.zeros(_N_OPS, dtype=bool)
_STORE_MASK[[int(op) for op in STORE_OPS]] = True
_VECTOR_MEMORY = np.zeros(_N_OPS, dtype=bool)
_VECTOR_MEMORY[[int(OpClass.VLOAD), int(OpClass.VSTORE)]] = True


@dataclass(frozen=True)
class TraceViolation:
    """One rule violation, anchored at its first offending instruction."""

    rule: str
    message: str
    index: int | None = None
    count: int = 1

    def __str__(self) -> str:
        where = "" if self.index is None else f" @ instruction {self.index}"
        extra = "" if self.count <= 1 else f" ({self.count} instructions)"
        return f"{self.rule}{where}: {self.message}{extra}"


@dataclass(frozen=True)
class TraceCheck:
    """Outcome of one rule over one trace."""

    rule: str
    title: str
    violations: tuple[TraceViolation, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass
class TraceLintReport:
    """All rule outcomes for one trace."""

    trace_name: str
    instructions: int
    checks: list[TraceCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def violations(self) -> list[TraceViolation]:
        return [v for check in self.checks for v in check.violations]

    def to_dict(self) -> dict:
        """Machine-readable form (the ``--json`` CLI output)."""
        return {
            "trace": self.trace_name,
            "instructions": self.instructions,
            "ok": self.ok,
            "checks": [
                {
                    "rule": check.rule,
                    "title": check.title,
                    "passed": check.passed,
                    "violations": [
                        {
                            "rule": v.rule,
                            "message": v.message,
                            "index": v.index,
                            "count": v.count,
                        }
                        for v in check.violations
                    ],
                }
                for check in self.checks
            ],
        }

    def format_table(self) -> str:
        """Per-check pass/fail table for terminal output."""
        lines = [f"trace {self.trace_name} ({self.instructions} instructions)"]
        for check in self.checks:
            status = "ok" if check.passed else "FAIL"
            lines.append(f"  {check.rule}  {check.title:<28} {status}")
            for violation in check.violations:
                lines.append(f"         {violation}")
        lines.append(f"  => {'clean' if self.ok else 'VIOLATIONS FOUND'}")
        return "\n".join(lines)


class TraceLintError(ValueError):
    """Raised by :func:`check_trace` when a trace fails lint."""

    def __init__(self, report: TraceLintReport) -> None:
        self.report = report
        first = report.violations[:3]
        summary = "; ".join(str(v) for v in first)
        more = len(report.violations) - len(first)
        if more > 0:
            summary += f"; +{more} more"
        super().__init__(
            f"trace {report.trace_name!r} failed lint: {summary}"
        )


def _first(mask: np.ndarray) -> int:
    return int(np.flatnonzero(mask)[0])


# ----------------------------------------------------------------------
# Individual rule implementations (each: columns -> list of violations)
# ----------------------------------------------------------------------

def check_schema(trace: Trace) -> list[TraceViolation]:
    """TR007: all eight columns exist with pinned dtypes and one length."""
    violations = []
    columns = trace.columns
    missing = COLUMN_DTYPES.keys() - columns.keys()
    if missing:
        violations.append(TraceViolation(
            "TR007", f"missing columns {sorted(missing)}"
        ))
        return violations
    lengths = set()
    for name, dtype in COLUMN_DTYPES.items():
        column = columns[name]
        if column.dtype != np.dtype(dtype):
            violations.append(TraceViolation(
                "TR007",
                f"column {name!r} has dtype {column.dtype}, expected "
                f"{np.dtype(dtype)}",
            ))
        expected_ndim = 2 if name == "sources" else 1
        if column.ndim != expected_ndim:
            violations.append(TraceViolation(
                "TR007",
                f"column {name!r} is {column.ndim}-D, expected "
                f"{expected_ndim}-D",
            ))
            continue
        lengths.add(column.shape[0])
    if len(lengths) > 1:
        violations.append(TraceViolation(
            "TR007", f"column lengths disagree: {sorted(lengths)}"
        ))
    return violations


def check_opcodes(trace: Trace) -> list[TraceViolation]:
    """TR001: every op value maps to a functional unit and latency."""
    ops = trace.columns["ops"]
    bad = ops >= _N_OPS
    if bad.any():
        index = _first(bad)
        return [TraceViolation(
            "TR001",
            f"opcode {int(ops[index])} has no functional unit or "
            f"latency mapping (valid: 0..{_N_OPS - 1})",
            index=index,
            count=int(bad.sum()),
        )]
    # Completeness of the ISA tables themselves (drift guard: a class
    # added to OpClass but not to the FU/latency maps).
    missing_fu = [op.name for op in OpClass if op not in FU_OF_OPCLASS]
    missing_lat = [op.name for op in OpClass if op not in LATENCY_OF_OPCLASS]
    violations = []
    if missing_fu:
        violations.append(TraceViolation(
            "TR001", f"OpClass {missing_fu} missing from FU_OF_OPCLASS"
        ))
    if missing_lat:
        violations.append(TraceViolation(
            "TR001", f"OpClass {missing_lat} missing from LATENCY_OF_OPCLASS"
        ))
    return violations


def check_dependencies(trace: Trace) -> list[TraceViolation]:
    """TR002: sources point strictly backward, at producers with dests."""
    columns = trace.columns
    sources = columns["sources"]
    n = sources.shape[0]
    if not n:
        return []
    valid = sources >= 0
    rows = np.arange(n).reshape(n, 1)
    forward = valid & (sources >= rows)
    violations = []
    if forward.any():
        row_mask = forward.any(axis=1)
        index = _first(row_mask)
        column = int(np.argmax(forward[index]))
        violations.append(TraceViolation(
            "TR002",
            f"depends on instruction {int(sources[index, column])}, which "
            "is not strictly earlier in the trace",
            index=index,
            count=int(row_mask.sum()),
        ))
    producers = np.where(valid & ~forward, sources, 0)
    destless = valid & ~forward & (columns["dests"][producers] == 0)
    if destless.any():
        row_mask = destless.any(axis=1)
        index = _first(row_mask)
        column = int(np.argmax(destless[index]))
        violations.append(TraceViolation(
            "TR002",
            f"depends on instruction {int(sources[index, column])}, which "
            "produces no register result",
            index=index,
            count=int(row_mask.sum()),
        ))
    return violations


def check_source_layout(trace: Trace) -> list[TraceViolation]:
    """TR003: canonical source rows (trailing -1 padding, legal width)."""
    sources = trace.columns["sources"]
    violations = []
    if sources.ndim != 2:
        return []  # TR007 already reported the shape problem
    if sources.shape[1] != MAX_SOURCES:
        violations.append(TraceViolation(
            "TR003",
            f"source width {sources.shape[1]} != on-disk width "
            f"{MAX_SOURCES}",
        ))
    below = sources < -1
    if below.any():
        row_mask = below.any(axis=1)
        violations.append(TraceViolation(
            "TR003",
            "source entries below -1 (padding must be exactly -1)",
            index=_first(row_mask),
            count=int(row_mask.sum()),
        ))
    if sources.shape[1] > 1:
        # A real producer after a -1 means the padding is interior: the
        # decode plane's pruned tuples would silently reorder it.
        interior = (sources[:, :-1] < 0) & (sources[:, 1:] >= 0)
        if interior.any():
            row_mask = interior.any(axis=1)
            violations.append(TraceViolation(
                "TR003",
                "-1 padding is interior; producers must be left-packed",
                index=_first(row_mask),
                count=int(row_mask.sum()),
            ))
    return violations


def check_memory_operands(
    trace: Trace, *, builder_invariants: bool = True
) -> list[TraceViolation]:
    """TR004: addresses/sizes agree with the memory class and ISA limits."""
    columns = trace.columns
    ops = columns["ops"]
    safe_ops = np.minimum(ops, _N_OPS - 1)
    memory = _MEMORY_MASK[safe_ops] & (ops < _N_OPS)
    addresses = columns["addresses"]
    sizes = columns["sizes"].astype(np.int64)
    violations = []

    nonmem_addr = ~memory & (addresses != -1)
    if nonmem_addr.any():
        violations.append(TraceViolation(
            "TR004",
            "non-memory instruction carries a memory address",
            index=_first(nonmem_addr),
            count=int(nonmem_addr.sum()),
        ))
    nonmem_size = ~memory & (sizes != 0)
    if nonmem_size.any():
        violations.append(TraceViolation(
            "TR004",
            "non-memory instruction carries a nonzero access size",
            index=_first(nonmem_size),
            count=int(nonmem_size.sum()),
        ))

    floor = DATA_SEGMENT_BASE if builder_invariants else 0
    low = memory & (addresses < floor)
    if low.any():
        violations.append(TraceViolation(
            "TR004",
            f"memory address below 0x{floor:x} "
            + ("(data segment base)" if builder_invariants
               else "(negative address)"),
            index=_first(low),
            count=int(low.sum()),
        ))
    high = memory & (addresses + np.maximum(sizes, 1) > ADDRESS_SPACE_LIMIT)
    if high.any():
        violations.append(TraceViolation(
            "TR004",
            f"access crosses the modeled address-space limit "
            f"0x{ADDRESS_SPACE_LIMIT:x}",
            index=_first(high),
            count=int(high.sum()),
        ))

    vector = _VECTOR_MEMORY[safe_ops] & memory
    scalar = memory & ~vector
    scalar_sizes = np.array(sorted(SCALAR_MEMORY_SIZES), dtype=np.int64)
    vector_sizes = np.array(sorted(VECTOR_MEMORY_SIZES), dtype=np.int64)
    bad_scalar = scalar & ~np.isin(sizes, scalar_sizes)
    if bad_scalar.any():
        index = _first(bad_scalar)
        violations.append(TraceViolation(
            "TR004",
            f"scalar access size {int(sizes[index])} not in "
            f"{sorted(SCALAR_MEMORY_SIZES)}",
            index=index,
            count=int(bad_scalar.sum()),
        ))
    bad_vector = vector & ~np.isin(sizes, vector_sizes)
    if bad_vector.any():
        index = _first(bad_vector)
        violations.append(TraceViolation(
            "TR004",
            f"vector access size {int(sizes[index])} not in "
            f"{sorted(VECTOR_MEMORY_SIZES)}",
            index=index,
            count=int(bad_vector.sum()),
        ))
    subword = memory & (sizes > 0) & (sizes < ALIGNED_BELOW)
    misaligned = subword & (addresses % np.maximum(sizes, 1) != 0)
    if misaligned.any():
        index = _first(misaligned)
        violations.append(TraceViolation(
            "TR004",
            f"sub-word access (size {int(sizes[index])}) is not "
            "naturally aligned",
            index=index,
            count=int(misaligned.sum()),
        ))
    return violations


def check_branch_operands(trace: Trace) -> list[TraceViolation]:
    """TR005: branch outcome/target fields appear only on CTRL ops."""
    columns = trace.columns
    ops = columns["ops"]
    ctrl = ops == int(OpClass.CTRL)
    takens = columns["takens"]
    targets = columns["targets"]
    violations = []
    bad_taken_value = takens > 1
    if bad_taken_value.any():
        violations.append(TraceViolation(
            "TR005",
            "taken flag outside {0, 1}",
            index=_first(bad_taken_value),
            count=int(bad_taken_value.sum()),
        ))
    nonctrl_taken = ~ctrl & (takens != 0)
    if nonctrl_taken.any():
        violations.append(TraceViolation(
            "TR005",
            "non-branch instruction marked taken",
            index=_first(nonctrl_taken),
            count=int(nonctrl_taken.sum()),
        ))
    nonctrl_target = ~ctrl & (targets != 0)
    if nonctrl_target.any():
        violations.append(TraceViolation(
            "TR005",
            "non-branch instruction carries a branch target",
            index=_first(nonctrl_target),
            count=int(nonctrl_target.sum()),
        ))
    bad_target = ctrl & (targets <= 0)
    if bad_target.any():
        violations.append(TraceViolation(
            "TR005",
            "branch target is not a positive code address",
            index=_first(bad_target),
            count=int(bad_target.sum()),
        ))
    return violations


def check_dest_flags(
    trace: Trace, *, builder_invariants: bool = True
) -> list[TraceViolation]:
    """TR006: destination flags agree with the opcode's result class."""
    from repro.uarch.pipeline.decode import REGFILE_OF_OPCLASS

    columns = trace.columns
    ops = columns["ops"]
    dests = columns["dests"]
    violations = []
    bad_value = dests > 1
    if bad_value.any():
        violations.append(TraceViolation(
            "TR006",
            "dest flag outside {0, 1}",
            index=_first(bad_value),
            count=int(bad_value.sum()),
        ))
    destless_table = np.array(
        [REGFILE_OF_OPCLASS.get(OpClass(v), -1) < 0 for v in range(_N_OPS)]
    )
    safe_ops = np.minimum(ops, _N_OPS - 1)
    known = ops < _N_OPS
    destless_class = destless_table[safe_ops] & known
    phantom = destless_class & (dests != 0)
    if phantom.any():
        violations.append(TraceViolation(
            "TR006",
            "store/branch-class instruction claims a register result",
            index=_first(phantom),
            count=int(phantom.sum()),
        ))
    if builder_invariants:
        result_class = ~destless_table[safe_ops] & known
        missing = result_class & (dests == 0)
        if missing.any():
            violations.append(TraceViolation(
                "TR006",
                "result-producing instruction has no dest flag",
                index=_first(missing),
                count=int(missing.sum()),
            ))
    return violations


def check_digest(
    trace: Trace, expected_digest: str | None
) -> list[TraceViolation]:
    """TR008: the recomputed content digest matches the expected one."""
    if expected_digest is None:
        return []
    from repro.runtime.keys import compute_trace_digest

    actual = compute_trace_digest(trace)
    if actual != expected_digest:
        return [TraceViolation(
            "TR008",
            f"content digest {actual} != expected {expected_digest}",
        )]
    return []


def check_roundtrip(trace: Trace) -> list[TraceViolation]:
    """TR009: serialize -> load reproduces the exact column bytes."""
    from repro.isa.serialize import load_trace, save_trace, trace_columns
    from repro.runtime.keys import compute_trace_digest

    violations = []
    with tempfile.TemporaryDirectory(prefix="repro-tracelint-") as root:
        path = Path(root) / "roundtrip.npz"
        try:
            save_trace(trace, path)
            loaded = load_trace(path)
        except (OSError, ValueError) as error:
            return [TraceViolation(
                "TR009", f"serialize round-trip failed: {error}"
            )]
        if loaded.name != trace.name:
            violations.append(TraceViolation(
                "TR009",
                f"round-trip renamed the trace: {loaded.name!r}",
            ))
        original = trace_columns(trace)
        reloaded = trace_columns(loaded)
        for name in sorted(original):
            before = original[name]
            after = reloaded[name]
            if before.dtype != after.dtype:
                violations.append(TraceViolation(
                    "TR009",
                    f"column {name!r} dtype changed across round-trip "
                    f"({before.dtype} -> {after.dtype})",
                ))
            elif before.tobytes() != after.tobytes():
                violations.append(TraceViolation(
                    "TR009",
                    f"column {name!r} bytes changed across round-trip",
                ))
        if not violations:
            before_digest = compute_trace_digest(trace)
            after_digest = compute_trace_digest(loaded)
            if before_digest != after_digest:
                violations.append(TraceViolation(
                    "TR009",
                    f"digest drifted across round-trip "
                    f"({before_digest} -> {after_digest})",
                ))
    return violations


def check_stamped_regions(trace: Trace) -> list[TraceViolation]:
    """TR011: template-stamped spans agree with their emit templates.

    Builders that stamp :class:`~repro.isa.emit.EmitTemplate` blocks
    attach :class:`~repro.isa.emit.StampRegion` records to the built
    trace (in-memory only; serialization drops them).  For every such
    region this rule re-derives, per instruction, the producing slot's
    static fields and checks the materialized columns against them:

    * the opcode equals the slot's class (and therefore its functional
      unit and latency, which key off the opcode tables);
    * dest flags and access sizes equal the slot's static shape;
    * each slot maps to one constant pc inside the region, distinct
      per slot (every slot is one static site);
    * control slots carry the builder's synthetic target (pc - 128 for
      back-edges, pc + 64 forward) and only control slots are taken.
    """
    regions = getattr(trace, "stamped_regions", ())
    if not regions:
        return []
    columns = trace.columns
    ops = columns["ops"]
    pcs = columns["pcs"]
    dests = columns["dests"]
    sizes = columns["sizes"]
    takens = columns["takens"]
    targets = columns["targets"]
    n = ops.shape[0]
    violations = []

    for number, region in enumerate(regions):
        template = region.template
        slot_of = np.asarray(region.slot_of)
        stop = region.start + slot_of.shape[0]
        label = f"stamped region #{number} ({template.name})"
        if region.start < 0 or stop > n:
            violations.append(TraceViolation(
                "TR011",
                f"{label} spans [{region.start}, {stop}) outside the "
                f"{n}-instruction trace",
            ))
            continue
        if not slot_of.size:
            continue
        if int(slot_of.max()) >= len(template.slots):
            violations.append(TraceViolation(
                "TR011",
                f"{label} names slot {int(slot_of.max())}; template has "
                f"{len(template.slots)}",
                index=region.start,
            ))
            continue
        span = slice(region.start, stop)

        bad = ops[span] != template.ops[slot_of]
        if bad.any():
            index = _first(bad)
            violations.append(TraceViolation(
                "TR011",
                f"{label}: opcode {int(ops[region.start + index])} "
                f"disagrees with slot "
                f"{template.slots[int(slot_of[index])].site!r} "
                "(functional unit and latency key off the opcode)",
                index=region.start + index,
                count=int(bad.sum()),
            ))
        bad = dests[span] != template.dests[slot_of]
        if bad.any():
            violations.append(TraceViolation(
                "TR011",
                f"{label}: dest flag disagrees with the slot's "
                "result class",
                index=region.start + _first(bad),
                count=int(bad.sum()),
            ))
        bad = sizes[span] != template.sizes[slot_of]
        if bad.any():
            violations.append(TraceViolation(
                "TR011",
                f"{label}: access size disagrees with the slot's "
                "static size",
                index=region.start + _first(bad),
                count=int(bad.sum()),
            ))

        # Per-slot pc constancy + distinctness (each slot is one static
        # site, so one synthetic pc).
        span_pcs = pcs[span]
        slot_pc: dict[int, int] = {}
        drifted = False
        for slot, pc in zip(slot_of.tolist(), span_pcs.tolist()):
            expected = slot_pc.setdefault(slot, pc)
            if expected != pc and not drifted:
                drifted = True
                violations.append(TraceViolation(
                    "TR011",
                    f"{label}: slot "
                    f"{template.slots[slot].site!r} emitted under "
                    f"multiple pcs (0x{expected:x}, 0x{pc:x})",
                ))
        if len(set(slot_pc.values())) != len(slot_pc):
            violations.append(TraceViolation(
                "TR011",
                f"{label}: distinct slots share one pc",
            ))

        is_ctrl = template.ops[slot_of] == int(OpClass.CTRL)
        bad = ~is_ctrl & (takens[span] != 0)
        if bad.any():
            violations.append(TraceViolation(
                "TR011",
                f"{label}: non-control slot marked taken",
                index=region.start + _first(bad),
                count=int(bad.sum()),
            ))
        backward = np.array(
            [slot.backward for slot in template.slots], dtype=bool
        )[slot_of]
        expected_targets = np.where(
            backward, span_pcs - 128, span_pcs + 64
        )
        bad = is_ctrl & (targets[span] != expected_targets)
        if bad.any():
            violations.append(TraceViolation(
                "TR011",
                f"{label}: control target disagrees with the builder's "
                "synthetic offset (pc - 128 backward, pc + 64 forward)",
                index=region.start + _first(bad),
                count=int(bad.sum()),
            ))
    return violations


def check_decode_plane(trace: Trace) -> list[TraceViolation]:
    """TR010: the decode plane agrees with an independent re-derivation.

    Verifies the *cached* plane when one exists (catching columns that
    were mutated after decoding, or a stale plane shipped through
    pickling) and a freshly built plane otherwise (catching decode
    logic that disagrees with the authoritative ISA tables).  The
    interned columns (``pc``, ``line``, ``address``, ``target``,
    ``words``) must equal the values re-derived from the raw columns,
    and ``i - d`` over ``distances[i]`` must rebuild row ``i`` of the
    ``sources`` column.
    """
    from repro.uarch.pipeline.decode import (
        FETCH_LINE_SHIFT,
        REGFILE_OF_OPCLASS,
        DecodedTrace,
    )

    columns = trace.columns
    ops = columns["ops"]
    if (ops >= _N_OPS).any():
        return []  # unknown opcodes are TR001's finding; no plane exists
    decoded = trace._decoded
    if decoded is None:
        decoded = DecodedTrace(trace)
    n = len(ops)
    violations = []

    def mismatch(name: str, expected, actual) -> None:
        if expected != actual:
            index = next(
                (i for i, (e, a) in enumerate(zip(expected, actual))
                 if e != a),
                None,
            )
            violations.append(TraceViolation(
                "TR010",
                f"decode plane field {name!r} disagrees with the columns",
                index=index,
            ))

    if decoded.n != n:
        return [TraceViolation(
            "TR010",
            f"decode plane covers {decoded.n} instructions, trace has {n}",
        )]

    fu_table = np.array(
        [int(FU_OF_OPCLASS[OpClass(v)]) for v in range(_N_OPS)],
        dtype=np.int64,
    )
    latency_table = np.array(
        [LATENCY_OF_OPCLASS[OpClass(v)] for v in range(_N_OPS)],
        dtype=np.int64,
    )
    regfile_table = np.array(
        [REGFILE_OF_OPCLASS.get(OpClass(v), -1) for v in range(_N_OPS)],
        dtype=np.int64,
    )
    mismatch("fu", fu_table[ops].tolist(), decoded.fu)
    mismatch("latency", latency_table[ops].tolist(), decoded.latency)
    mismatch("regfile", regfile_table[ops].tolist(), decoded.regfile)
    mismatch("is_load", _LOAD_MASK[ops].tolist(), decoded.is_load)
    mismatch("is_store", _STORE_MASK[ops].tolist(), decoded.is_store)
    mismatch(
        "is_branch", (ops == int(OpClass.CTRL)).tolist(), decoded.is_branch
    )
    pcs = columns["pcs"]
    mismatch("pc", pcs.tolist(), decoded.pc)
    mismatch("line", (pcs >> FETCH_LINE_SHIFT).tolist(), decoded.line)
    addresses = columns["addresses"]
    sizes = columns["sizes"]
    mismatch("address", addresses.tolist(), decoded.address)
    mismatch("size", sizes.tolist(), decoded.size)
    mismatch("taken", columns["takens"].astype(bool).tolist(), decoded.taken)
    mismatch("target", columns["targets"].tolist(), decoded.target)

    memory = _MEMORY_MASK[ops]
    first_words = (addresses >> 3).tolist()
    last_words = (
        (addresses + np.maximum(sizes, 1).astype(np.int64) - 1) >> 3
    ).tolist()
    expected_words: list[tuple[int, ...] | None] = [None] * n
    for index in np.flatnonzero(memory).tolist():
        first = first_words[index]
        last = last_words[index]
        expected_words[index] = (
            (first,) if first == last else tuple(range(first, last + 1))
        )
    mismatch("words", expected_words, decoded.words)

    # The plane keeps producer distances; rebuild absolute producers.
    expected_sources = [
        tuple(s for s in row if s >= 0)
        for row in columns["sources"].tolist()
    ]
    rebuilt_sources = [
        tuple(index - back for back in row)
        for index, row in enumerate(decoded.distances)
    ]
    mismatch("distances", expected_sources, rebuilt_sources)
    return violations


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

#: rule id -> (title, applies in fast/strict mode).  TR008/TR009 do I/O
#: or need external expectations, so strict hooks skip them by default.
TRACE_RULES: dict[str, str] = {
    "TR001": "opcode validity",
    "TR002": "def-before-use",
    "TR003": "source layout",
    "TR004": "memory operands",
    "TR005": "branch operands",
    "TR006": "destination flags",
    "TR007": "column schema",
    "TR008": "content digest",
    "TR009": "serialize round-trip",
    "TR010": "decode plane",
    "TR011": "stamped regions",
}


def lint_trace(
    trace: Trace,
    *,
    expected_digest: str | None = None,
    builder_invariants: bool = True,
    include_roundtrip: bool = True,
) -> TraceLintReport:
    """Run every applicable rule; returns a full per-check report.

    ``builder_invariants`` additionally enforces conventions every
    :class:`~repro.isa.builder.TraceBuilder`-generated trace satisfies
    (data-segment addresses, dest flags on all result classes); turn it
    off for hand-assembled traces.  ``include_roundtrip`` controls the
    TR009 disk round-trip (skipped in the hot strict hooks).
    """
    try:
        instructions = len(trace)
    except (KeyError, TypeError):
        instructions = 0
    report = TraceLintReport(
        trace_name=trace.name, instructions=instructions
    )
    schema = check_schema(trace)
    report.checks.append(
        TraceCheck("TR007", TRACE_RULES["TR007"], tuple(schema))
    )
    if schema:
        # The remaining rules index the columns the schema check just
        # rejected; report the schema breakage alone rather than crash.
        return report

    outcomes = [
        ("TR001", check_opcodes(trace)),
        ("TR002", check_dependencies(trace)),
        ("TR003", check_source_layout(trace)),
        ("TR004", check_memory_operands(
            trace, builder_invariants=builder_invariants
        )),
        ("TR005", check_branch_operands(trace)),
        ("TR006", check_dest_flags(
            trace, builder_invariants=builder_invariants
        )),
        ("TR008", check_digest(trace, expected_digest)),
    ]
    if include_roundtrip:
        outcomes.append(("TR009", check_roundtrip(trace)))
    outcomes.append(("TR010", check_decode_plane(trace)))
    outcomes.append(("TR011", check_stamped_regions(trace)))
    for rule, violations in outcomes:
        report.checks.append(
            TraceCheck(rule, TRACE_RULES[rule], tuple(violations))
        )
    report.checks.sort(key=lambda check: check.rule)
    return report


def check_trace(
    trace: Trace,
    *,
    expected_digest: str | None = None,
    builder_invariants: bool = True,
    include_roundtrip: bool = False,
) -> Trace:
    """Strict-mode hook: lint and raise :class:`TraceLintError` on failure.

    Returns the trace unchanged on success so call sites can wrap
    expressions (``return check_trace(build())``).
    """
    report = lint_trace(
        trace,
        expected_digest=expected_digest,
        builder_invariants=builder_invariants,
        include_roundtrip=include_roundtrip,
    )
    if not report.ok:
        raise TraceLintError(report)
    return trace
