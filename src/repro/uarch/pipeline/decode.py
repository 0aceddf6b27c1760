"""Config-independent per-trace decode plane.

The out-of-order core consults a handful of derived, per-instruction
facts on every simulated cycle: which functional unit an op uses, its
base latency, which register file its result lives in, whether it is a
load/store/branch, which I-cache line its pc maps to, and which 8-byte
words a memory access touches.  None of these depend on the processor
or memory configuration, so a Figure 5-style sweep (one trace simulated
under many configurations) kept recomputing identical values.

:func:`decode_trace` derives them all once, in vectorized passes over
the trace's native columns, and caches the result on the trace
(``trace._decoded``).  The fields are plain Python lists — indexing a
list with an ``int`` is considerably faster inside the interpreter's
cycle loop than indexing a NumPy array, which would box a fresh scalar
object on every read.
"""

from __future__ import annotations

import gc

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


class DecodedTrace:
    """Derived per-instruction facts, shared by every configuration.

    All sequence fields are Python lists of length ``n`` indexed by
    trace position.  ``words`` holds a tuple of touched 8-byte word
    numbers for memory instructions and ``None`` elsewhere; ``sources``
    holds the (possibly empty) tuple of producer indices.
    """

    __slots__ = (
        "n", "fu", "latency", "regfile", "is_load", "is_store",
        "is_branch", "is_memory", "is_vload", "line", "pc",
        "address", "size", "taken", "target", "words", "sources",
    )

    def __init__(self, trace: Trace) -> None:
        columns = trace.columns
        ops = columns["ops"]
        n = len(ops)
        self.n = n
        self.fu = _FU_TABLE[ops].tolist()
        self.latency = _LATENCY_TABLE[ops].tolist()
        self.regfile = _REGFILE_TABLE[ops].tolist()
        is_load = _IS_LOAD[ops]
        is_store = _IS_STORE[ops]
        is_memory = _IS_MEMORY[ops]
        self.is_load = is_load.tolist()
        self.is_store = is_store.tolist()
        self.is_branch = (ops == OpClass.CTRL).tolist()
        self.is_memory = is_memory.tolist()
        self.is_vload = (ops == OpClass.VLOAD).tolist()
        pcs = columns["pcs"]
        self.line = (pcs >> FETCH_LINE_SHIFT).tolist()
        self.pc = pcs.tolist()
        addresses = columns["addresses"]
        sizes = columns["sizes"]
        self.address = addresses.tolist()
        self.size = sizes.tolist()
        self.taken = columns["takens"].astype(bool).tolist()
        self.target = columns["targets"].tolist()

        # 8-byte word spans of memory accesses (store-to-load aliasing).
        first_words = (addresses >> 3).tolist()
        last_words = (
            (addresses + np.maximum(sizes, 1).astype(np.int64) - 1) >> 3
        ).tolist()
        words: list[tuple[int, ...] | None] = [None] * n
        for index in np.flatnonzero(is_memory).tolist():
            first = first_words[index]
            last = last_words[index]
            words[index] = (
                (first,) if first == last
                else tuple(range(first, last + 1))
            )
        self.words = words

        # Producer tuples with the -1 padding stripped.
        source_rows = columns["sources"].tolist()
        self.sources = [
            tuple(source for source in row if source >= 0)
            for row in source_rows
        ]


def decode_trace(trace: Trace) -> DecodedTrace:
    """The trace's decode plane, built once and cached on the trace."""
    decoded = trace._decoded
    if decoded is None:
        # The plane is millions of int tuples and no cycles; with the
        # cyclic collector on, those allocations set off full-heap
        # gen-2 passes that more than double the decode time.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            decoded = DecodedTrace(trace)
        finally:
            if gc_was_enabled:
                gc.enable()
        trace._decoded = decoded
    return decoded
