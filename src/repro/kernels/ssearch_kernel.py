"""Traced SSEARCH34 kernel: scalar SWAT-optimized Smith-Waterman.

Mirrors paper listing 2.  Each DP cell follows the SWAT control
structure: a *fast path* when both the incoming diagonal score and the
stored gap score are non-positive (load, test, store zero, next), and a
*slow path* that performs the full affine-gap update.  On typical
(unrelated) database sequences most cells take the fast path, giving
the application its speed — and its signature mix of ~25% data-dependent
branches that the paper identifies as the dominant performance limiter.

The Python DP state is updated exactly as
:func:`repro.align.smith_waterman.sw_score_swat`, so the traced scores
are bit-identical to the reference (tested).
"""

from __future__ import annotations

import numpy as np

from repro.align.types import GapPenalties, PAPER_GAPS
from repro.bio.database import SequenceDatabase
from repro.bio.matrices import BLOSUM62, ScoringMatrix
from repro.bio.sequence import Sequence
from repro.isa.builder import TraceBuilder
from repro.isa.emit import Carry, EmitTemplate, Reg, Sel, Slot, SlotSpec
from repro.isa.opcodes import OpClass

from repro.kernels.base import TracedKernel


def _cell_template() -> EmitTemplate:
    """The SWAT cell block as a stamp template.

    Slot order follows the cell's SWAT code path (listing 2); the
    data-dependent paths (the SWAT fast/slow split and its conditional
    moves) become gates driven by per-cell boolean masks computed by
    the reference DP update.
    """
    alu = OpClass.IALU
    load = OpClass.ILOAD
    store = OpClass.ISTORE
    ctrl = OpClass.CTRL
    # Loop-carried registers: the profile pointer (slot 1 increments
    # it), the diagonal H (last iteration's loadH), the running F
    # (rewritten by f_sel on slow cells), and the row best (mov_best).
    r_pwaa = Carry(1, init=Reg("pwaa"))
    r_diag = Carry(3, init=Reg("h0"))
    r_f = Carry(17, init=Reg("f0"))
    r_best = Carry(23, init=Reg("h0"))
    r_h = Sel(14, 11, 2)  # after the conditional moves
    return EmitTemplate("ssearch.cell", [
        SlotSpec(load, "cell.pwaa", sources=(r_pwaa,),
                 base="waa_row", scale=2, size=2),
        SlotSpec(alu, "cell.pwaa_inc", sources=(r_pwaa,)),
        SlotSpec(alu, "cell.add", sources=(r_diag, Slot(0))),
        SlotSpec(load, "cell.loadH", sources=(Reg("ss"),),
                 base="ssb", scale=8, size=4),
        SlotSpec(load, "cell.loadE", sources=(Reg("ss"),),
                 base="ssb", scale=8, offset=4, size=4),
        SlotSpec(alu, "cell.cmp_e", sources=(Slot(4),)),
        SlotSpec(ctrl, "cell.br_e", taken="e_pos", sources=(Slot(5),)),
        SlotSpec(alu, "cell.cmp_h", sources=(Slot(2), r_f)),
        SlotSpec(ctrl, "cell.br_h", taken="hf_pos", sources=(Slot(7),)),
        SlotSpec(alu, "cell.cmp_fh", gate="slow", sources=(r_f, Slot(2))),
        SlotSpec(ctrl, "cell.br_fh", gate="slow", taken="f_beats",
                 sources=(Slot(9),)),
        SlotSpec(alu, "cell.mov_f", gate="slow_f", sources=(r_f,)),
        SlotSpec(alu, "cell.cmp_eh", gate="slow",
                 sources=(Slot(4), Sel(11, 2))),
        SlotSpec(ctrl, "cell.br_eh", gate="slow", taken="e_beats",
                 sources=(Slot(12),)),
        SlotSpec(alu, "cell.mov_e", gate="slow_e", sources=(Slot(4),)),
        SlotSpec(alu, "cell.thr", gate="slow", sources=(r_h,)),
        SlotSpec(alu, "cell.f_ext", gate="slow", sources=(r_f,)),
        SlotSpec(alu, "cell.f_sel", gate="slow",
                 sources=(Slot(15), Slot(16))),
        SlotSpec(alu, "cell.e_ext", gate="slow", sources=(Slot(4),)),
        SlotSpec(alu, "cell.e_sel", gate="slow",
                 sources=(Slot(15), Slot(18))),
        SlotSpec(store, "cell.stE", gate="slow",
                 sources=(Slot(19), Reg("ss")),
                 base="ssb", scale=8, offset=4, size=4),
        SlotSpec(store, "cell.stH", gate="slow", sources=(r_h, Reg("ss")),
                 base="ssb", scale=8, size=4),
        SlotSpec(alu, "cell.cmp_best", gate="slow_b",
                 sources=(r_h, r_best)),
        SlotSpec(alu, "cell.mov_best", gate="slow_b", sources=(Slot(22),),
                 key="best"),
        SlotSpec(store, "cell.stH0", gate="fast",
                 sources=(Slot(2), Reg("ss")),
                 base="ssb", scale=8, size=4),
        SlotSpec(ctrl, "cell.loop", taken="loop", backward=True),
    ])


#: Compiled once at import; stamping reuses it for every row.
CELL_TEMPLATE = _cell_template()
_BEST_SLOT = CELL_TEMPLATE.slot_index("best")


class SsearchKernel(TracedKernel):
    """Instrumented scalar Smith-Waterman database scan.

    ``computation_avoidance=False`` disables the SWAT fast path in the
    *emitted* stream (every cell takes the full update, like a naive SW
    implementation) while computing identical scores — the ablation
    that shows where SSEARCH's speed and its branch-predictor
    dependence both come from.
    """

    name = "ssearch34"

    def __init__(
        self,
        matrix: ScoringMatrix = BLOSUM62,
        gaps: GapPenalties = PAPER_GAPS,
        computation_avoidance: bool = True,
    ) -> None:
        self.matrix = matrix
        self.gaps = gaps
        self.computation_avoidance = computation_avoidance

    def execute(
        self,
        builder: TraceBuilder,
        query: Sequence,
        database: SequenceDatabase,
        scores: dict[str, int],
    ) -> None:
        q = query.codes
        m = len(q)
        gap_first = self.gaps.first_residue_cost
        gap_extend = self.gaps.extend
        rows = self.matrix.rows
        avoid = self.computation_avoidance

        waa_base = builder.alloc("waa", self.matrix.size * m * 2)
        ss_base = builder.alloc("ss", m * 8)
        db_base = builder.alloc("db", database.residue_count, align=128)

        # Query profile rows memoized per database residue code.
        profile: dict[int, list[int]] = {}
        loop_taken = np.ones(m, dtype=bool)
        if m:
            loop_taken[m - 1] = False

        db_cursor = db_base
        for subject in database:
            s = subject.codes
            subject_base = db_cursor
            db_cursor += len(s)

            h_state = [0] * m
            e_state = [0] * m
            best = 0

            r_sub = builder.ialu("drv.subj.setup")
            builder.other("drv.subj.misc", (r_sub,))

            r_best = 0
            for j, b_code in enumerate(s):
                score_row_q = profile.get(b_code)
                if score_row_q is None:
                    score_row = rows[b_code]
                    score_row_q = [score_row[code] for code in q]
                    profile[b_code] = score_row_q

                r_b = builder.iload(
                    "row.loadb", subject_base + j, (r_sub,), size=1
                )
                r_pwaa = builder.ialu("row.pwaa", (r_b,))
                r_ss = builder.ialu("row.ssptr")
                r_h0 = builder.ialu("row.h0")
                r_f0 = builder.ialu("row.f0")

                # Reference SWAT DP for the whole row, collecting the
                # per-cell branch outcomes the template's gates need.
                e_pos = [False] * m
                hf_pos = [False] * m
                slow_m = [False] * m
                f_bt = [False] * m
                e_bt = [False] * m
                best_m = [False] * m
                h = 0
                f = 0
                for i in range(m):
                    h += score_row_q[i]
                    prev_h = h_state[i]
                    e = e_state[i]
                    e_pos[i] = e > 0
                    hf_pos[i] = h > 0 or f > 0
                    slow = e > 0 or h > 0 or f > 0 or not avoid
                    slow_m[i] = slow
                    if h < 0:
                        h = 0
                    f_beats_h = f > h
                    if f_beats_h:
                        h = f
                    e_beats_h = e > h
                    if e_beats_h:
                        h = e
                    f_bt[i] = f_beats_h
                    e_bt[i] = e_beats_h
                    threshold = h - gap_first
                    f -= gap_extend
                    if threshold > f:
                        f = threshold
                    e -= gap_extend
                    if threshold > e:
                        e = threshold
                    if e < 0:
                        e = 0
                    if slow and h > best:
                        best_m[i] = True
                    h_state[i] = h
                    e_state[i] = e
                    if h > best:
                        best = h
                    h = prev_h

                slow_mask = np.asarray(slow_m, dtype=bool)
                result = builder.stamp(CELL_TEMPLATE, m, {
                    "pwaa": r_pwaa,
                    "h0": r_h0,
                    "f0": r_f0,
                    "ss": r_ss,
                    "waa_row": waa_base + b_code * m * 2,
                    "ssb": ss_base,
                    "e_pos": np.asarray(e_pos, dtype=bool),
                    "hf_pos": np.asarray(hf_pos, dtype=bool),
                    "slow": slow_mask,
                    "fast": ~slow_mask,
                    "f_beats": np.asarray(f_bt, dtype=bool),
                    "e_beats": np.asarray(e_bt, dtype=bool),
                    "slow_f": slow_mask & np.asarray(f_bt, dtype=bool),
                    "slow_e": slow_mask & np.asarray(e_bt, dtype=bool),
                    "slow_b": np.asarray(best_m, dtype=bool),
                    "loop": loop_taken,
                })
                r_best = result.last(_BEST_SLOT, default=r_h0)

                builder.ctrl("row.loop", taken=j + 1 < len(s), backward=True)

            r_bin = builder.ialu("drv.hist.bin", (r_best,))
            builder.istore("drv.hist.store", ss_base, (r_bin,), size=4)
            scores[subject.identifier] = best
