"""Shared traced banded affine DP used by the BLAST and FASTA kernels.

BLAST's gapped extension and FASTA's ``opt`` stage both run a banded
Gotoh dynamic program.  This helper executes the exact
:func:`repro.align.banded.banded_sw_score` recurrence while emitting a
branchy scalar DP instruction stream (profile load, H/E row loads,
compare-and-branch on the positivity tests, packed row store) — the
same control-flow character as the SSEARCH cell loop, which is why the
paper finds branch prediction to be FASTA's main limiter too.

Returns the banded score; tests assert it equals ``banded_sw_score``.
"""

from __future__ import annotations

import numpy as np

from repro.align.types import GapPenalties
from repro.bio.matrices import ScoringMatrix
from repro.isa.builder import TraceBuilder
from repro.isa.emit import Carry, EmitTemplate, Reg, Slot, SlotSpec
from repro.isa.opcodes import OpClass

_NEG_INF = -(10**9)

#: Per-prefix compiled banded-cell templates (sites embed the prefix).
_CELL_TEMPLATES: dict[str, EmitTemplate] = {}


def _cell_template(prefix: str) -> EmitTemplate:
    """The banded Gotoh cell block for one call-site prefix."""
    template = _CELL_TEMPLATES.get(prefix)
    if template is not None:
        return template
    alu = OpClass.IALU
    load = OpClass.ILOAD
    template = EmitTemplate(f"{prefix}.cell", [
        SlotSpec(load, f"{prefix}.cell.prof", sources=(Reg("prof"),),
                 base="profrow", scale=2, index="idx", size=2),
        SlotSpec(load, f"{prefix}.cell.loadH", sources=(Reg("ptr"),),
                 base="rowb", scale=8, index="idx", size=4),
        SlotSpec(load, f"{prefix}.cell.loadE", sources=(Reg("ptr"),),
                 base="rowb", scale=8, index="idx", offset=4, size=4),
        SlotSpec(alu, f"{prefix}.cell.add", sources=(Reg("h0"), Slot(0))),
        SlotSpec(alu, f"{prefix}.cell.e_upd", sources=(Slot(1), Slot(2))),
        SlotSpec(alu, f"{prefix}.cell.f_upd",
                 sources=(Carry(5, init=Reg("h0")),
                          Carry(6, init=Reg("h0")))),
        SlotSpec(alu, f"{prefix}.cell.h_max",
                 sources=(Slot(3), Slot(4), Slot(5))),
        SlotSpec(alu, f"{prefix}.cell.cmp_pos", sources=(Slot(6),)),
        SlotSpec(OpClass.CTRL, f"{prefix}.cell.br_pos", taken="pos",
                 sources=(Slot(7),)),
        SlotSpec(alu, f"{prefix}.cell.cmp_best", gate="pos",
                 sources=(Slot(6),)),
        SlotSpec(OpClass.CTRL, f"{prefix}.cell.br_best", gate="pos",
                 taken="b_gt", sources=(Slot(9),)),
        SlotSpec(alu, f"{prefix}.cell.mov_best", gate="best_upd",
                 sources=(Slot(6),)),
        SlotSpec(OpClass.ISTORE, f"{prefix}.cell.store",
                 sources=(Slot(6), Slot(4)),
                 base="rowb", scale=8, index="idx", size=8),
        SlotSpec(OpClass.CTRL, f"{prefix}.cell.loop", taken="loop",
                 backward=True),
    ])
    _CELL_TEMPLATES[prefix] = template
    return template


def banded_dp_traced(
    builder: TraceBuilder,
    prefix: str,
    query_codes,
    subject_codes,
    center: int,
    width: int,
    matrix: ScoringMatrix,
    gaps: GapPenalties,
    profile_base: int,
    row_base: int,
    subject_base: int,
    r_ctx: int,
) -> int:
    """Run a traced banded local DP; returns the best score in the band.

    ``profile_base``/``row_base``/``subject_base`` locate the query
    profile, the H/E row arrays, and the subject residues in the traced
    address space; ``r_ctx`` is the register carrying the caller's
    context pointer (address dependencies hang off it).
    """
    q = query_codes
    s = subject_codes
    if not q or not s:
        return 0

    gap_first = gaps.first_residue_cost
    gap_extend = gaps.extend
    rows = matrix.rows
    m = len(q)
    lo_diag = center - width
    hi_diag = center + width
    template = _cell_template(prefix)

    h_row = [0] * (m + 1)
    e_row = [_NEG_INF] * (m + 1)
    best = 0

    r_ptr = builder.ialu(f"{prefix}.setup", (r_ctx,))

    for j in range(1, len(s) + 1):
        score_row = rows[s[j - 1]]
        i_min = max(1, j - hi_diag)
        i_max = min(m, j - lo_diag)
        if i_min > i_max:
            continue
        r_b = builder.iload(
            f"{prefix}.col.loadb", subject_base + j - 1, (r_ptr,), size=1
        )
        r_prof = builder.ialu(f"{prefix}.col.prof", (r_b,))
        r_h0 = builder.ialu(f"{prefix}.col.h0")

        diag = h_row[i_min - 1]
        f = _NEG_INF
        if i_min > 1:
            h_row[i_min - 1] = 0

        # Reference banded recurrence for the column, collecting the
        # positivity/best branch outcomes that gate the template.
        n = i_max - i_min + 1
        pos = [False] * n
        b_gt = [False] * n
        for k in range(n):
            i = i_min + k
            on_right_edge = (j - i) == lo_diag
            e = _NEG_INF if on_right_edge else max(
                h_row[i] - gap_first, e_row[i] - gap_extend
            )
            f = max(h_row[i - 1] - gap_first, f - gap_extend)
            h = diag + score_row[q[i - 1]]
            if e > h:
                h = e
            if f > h:
                h = f
            clamped = h < 0
            if clamped:
                h = 0
            pos[k] = not clamped
            b_gt[k] = h > best

            diag = h_row[i]
            h_row[i] = h
            e_row[i] = e
            if h > best:
                best = h

        pos_mask = np.asarray(pos, dtype=bool)
        b_gt_mask = np.asarray(b_gt, dtype=bool)
        idx = np.arange(i_min, i_max + 1, dtype=np.int64)
        builder.stamp(template, n, {
            "prof": r_prof,
            "ptr": r_ptr,
            "h0": r_h0,
            "profrow": profile_base + s[j - 1] * m * 2,
            "rowb": row_base,
            "idx": idx,
            "pos": pos_mask,
            "b_gt": b_gt_mask,
            "best_upd": pos_mask & b_gt_mask,
            "loop": idx < i_max,
        })

        if i_max < m:
            h_row[i_max + 1] = 0
            e_row[i_max + 1] = _NEG_INF
        builder.ctrl(f"{prefix}.col.loop", taken=j < len(s), backward=True)

    return best
