"""Config-independent per-trace decode plane.

The out-of-order core consults a handful of derived, per-instruction
facts on every simulated cycle: which functional unit an op uses, its
base latency, which register file its result lives in, whether it is a
load/store/branch, which I-cache line its pc maps to, which 8-byte
words a memory access touches, and how far back its producers sit.
None of these depend on the processor or memory configuration, so a
Figure 5-style sweep (one trace simulated under many configurations)
kept recomputing identical values.

:func:`decode_trace` derives them all once, in vectorized passes over
the trace's native columns, and caches the result on the trace
(``trace._decoded``).  The fields are plain Python lists — indexing a
list with an ``int`` is considerably faster inside the interpreter's
cycle loop than indexing a NumPy array, which would box a fresh scalar
object on every read.

A list costs one 8-byte slot per instruction plus the objects it
points at, so the plane holds no object that repeats: the flag and
small-int columns point at the interpreter's shared ``True``/``False``
and small ints, and ``pc``, ``line``, ``address``, ``target``,
``words`` and ``distances`` are *interned* — every distinct value is
built once and every row holding it points at the same object.  A
kernel's loop body repeats a few dozen pcs and a few thousand
addresses, word spans and producer-distance rows, so a million-
instruction trace keeps ~120 bytes per instruction instead of ~320.
Producers are stored as distances (``index - source``) rather than
absolute indices because absolute indices never repeat; the core
recovers each source with one subtraction.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.isa.opcodes import (
    FU_OF_OPCLASS,
    LATENCY_OF_OPCLASS,
    MEMORY_OPS,
    OpClass,
)
from repro.isa.trace import Trace

#: Register file classes (indexes into the core's free-register table).
GPR, VPR, FPR = 0, 1, 2

#: OpClass -> register file of the result; -1 for destination-less ops.
REGFILE_OF_OPCLASS: dict[OpClass, int] = {
    OpClass.IALU: GPR,
    OpClass.ILOAD: GPR,
    OpClass.OTHER: GPR,
    OpClass.VLOAD: VPR,
    OpClass.VSIMPLE: VPR,
    OpClass.VPERM: VPR,
    OpClass.VCMPLX: VPR,
    OpClass.FPU: FPR,
}

_N_OPS = len(OpClass)
_FU_TABLE = np.array(
    [int(FU_OF_OPCLASS[OpClass(v)]) for v in range(_N_OPS)], dtype=np.int64
)
_LATENCY_TABLE = np.array(
    [LATENCY_OF_OPCLASS[OpClass(v)] for v in range(_N_OPS)], dtype=np.int64
)
_REGFILE_TABLE = np.array(
    [REGFILE_OF_OPCLASS.get(OpClass(v), -1) for v in range(_N_OPS)],
    dtype=np.int64,
)
_IS_LOAD = np.zeros(_N_OPS, dtype=bool)
_IS_LOAD[[OpClass.ILOAD, OpClass.VLOAD]] = True
_IS_STORE = np.zeros(_N_OPS, dtype=bool)
_IS_STORE[[OpClass.ISTORE, OpClass.VSTORE]] = True
_IS_MEMORY = np.zeros(_N_OPS, dtype=bool)
_IS_MEMORY[[int(op) for op in MEMORY_OPS]] = True

#: I-cache line granularity assumed by the frontend (128-byte lines).
FETCH_LINE_SHIFT = 7

#: Key-matrix filler for an absent entry (a padded source slot, a
#: non-memory op's word span).  No real distance or word equals it:
#: ``index - source`` with ``0 <= index, source < 2**63`` is at least
#: ``-(2**63 - 1)``, and word numbers are non-negative.
_ABSENT = np.iinfo(np.int64).min


def _interned_rows(
    keys: np.ndarray, value_of: Callable[[list[int]], object]
) -> list:
    """One entry per row of the 2-D ``keys``; equal rows share one object.

    ``value_of`` builds the entry from a row (as a list of Python ints)
    and runs once per *distinct* row: the rows are grouped by a
    lexicographic sort, so the cost is one sort plus a gather, and the
    result holds ``len(distinct rows)`` objects however long it is.
    """
    count = len(keys)
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    starts = np.ones(count, dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    inverse = np.empty(count, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    distinct = ordered[starts].tolist()
    table = np.fromiter(
        (value_of(row) for row in distinct), dtype=object, count=len(distinct)
    )
    return table[inverse].tolist()


def _first(row: list[int]) -> int:
    return row[0]


def _span(row: list[int]) -> tuple[int, ...] | None:
    first, last = row
    if first == _ABSENT:
        return None
    return (first,) if first == last else tuple(range(first, last + 1))


def _present(row: list[int]) -> tuple[int, ...]:
    return tuple(value for value in row if value != _ABSENT)


class DecodedTrace:
    """Derived per-instruction facts, shared by every configuration.

    All sequence fields are Python lists of length ``n`` indexed by
    trace position.  ``words`` holds a tuple of touched 8-byte word
    numbers for memory instructions and ``None`` elsewhere, so it also
    marks the memory ops.  ``distances`` holds the (possibly empty)
    tuple of producer distances: instruction ``i``'s producers are
    ``i - d`` for each ``d`` in ``distances[i]``, in the order of the
    trace's ``sources`` column.
    """

    __slots__ = (
        "n", "fu", "latency", "regfile", "is_load", "is_store",
        "is_branch", "is_vload", "line", "pc", "address", "size",
        "taken", "target", "words", "distances",
    )

    def __init__(self, trace: Trace) -> None:
        columns = trace.columns
        ops = columns["ops"]
        n = len(ops)
        self.n = n
        self.fu = _FU_TABLE[ops].tolist()
        self.latency = _LATENCY_TABLE[ops].tolist()
        self.regfile = _REGFILE_TABLE[ops].tolist()
        self.is_load = _IS_LOAD[ops].tolist()
        self.is_store = _IS_STORE[ops].tolist()
        self.is_branch = (ops == OpClass.CTRL).tolist()
        self.is_vload = (ops == OpClass.VLOAD).tolist()
        pcs = columns["pcs"]
        self.pc = _interned_rows(pcs[:, None], _first)
        self.line = _interned_rows(
            (pcs >> FETCH_LINE_SHIFT)[:, None], _first
        )
        addresses = columns["addresses"]
        sizes = columns["sizes"]
        self.address = _interned_rows(addresses[:, None], _first)
        self.size = sizes.tolist()
        self.taken = columns["takens"].astype(bool).tolist()
        self.target = _interned_rows(columns["targets"][:, None], _first)

        # 8-byte word spans of memory accesses (store-to-load aliasing).
        is_memory = _IS_MEMORY[ops]
        spans = np.full((n, 2), _ABSENT, dtype=np.int64)
        spans[is_memory, 0] = addresses[is_memory] >> 3
        spans[is_memory, 1] = (
            addresses[is_memory]
            + np.maximum(sizes[is_memory], 1).astype(np.int64) - 1
        ) >> 3
        self.words = _interned_rows(spans, _span)

        # Producer distances, with the negative (padding) sources dropped.
        sources = columns["sources"]
        positions = np.arange(n, dtype=np.int64)[:, None]
        self.distances = _interned_rows(
            np.where(sources >= 0, positions - sources, _ABSENT), _present
        )


def decode_trace(trace: Trace) -> DecodedTrace:
    """The trace's decode plane, built once and cached on the trace."""
    decoded = trace._decoded
    if decoded is None:
        decoded = trace._decoded = DecodedTrace(trace)
    return decoded
