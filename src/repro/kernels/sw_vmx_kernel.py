"""Traced SW_vmx128 / SW_vmx256 kernels: anti-diagonal SIMD SW.

Emits the Altivec-style operation stream of the Wozniak anti-diagonal
algorithm: per wavefront step a fixed recipe of vector loads (profile
gather), vector simple-integer ops (saturating adds/subs/maxes), vector
permutes (lane shifts between neighbouring rows), and scalar address
arithmetic — with loop control only at tile boundaries (listing 3's
``i += 8``/``j += 8`` structure), which is why control instructions are
~2% of the mix.  A register holds ``width_bits // 16`` signed 16-bit
score lanes: 8 for SW_vmx128, 16 for SW_vmx256.

That stream depends on sequence lengths, residue codes and block
offsets, never on a lane value, so the kernel stamps it without
computing the wavefront and takes each finished subject's score from
:func:`repro.align.smith_waterman.sw_score_codes`, memoized per process
so the two widths score each subject once.  The emitted streams are
pinned in ``tests/golden/emission_golden.json``.

The 256-bit variant executes half the wavefront steps but each of its
permute and memory operations cracks into two 128-bit micro-ops (the
modelled machine keeps 128-bit data paths, the scenario behind the
paper's Figure 8 "+1 latency" experiment), so its instruction reduction
is well short of 2x — the paper observes the same effect (Table III:
79.0M -> 65.6M).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.align.smith_waterman import sw_score_codes
from repro.align.types import GapPenalties, PAPER_GAPS
from repro.bio.database import SequenceDatabase
from repro.bio.matrices import BLOSUM62, ScoringMatrix
from repro.bio.sequence import Sequence
from repro.isa.builder import TraceBuilder
from repro.isa.emit import Carry, EmitTemplate, Reg, Slot, SlotSpec
from repro.isa.opcodes import OpClass
from repro.kernels.base import TracedKernel

#: Steps per unrolled inner tile (one back-edge per this many steps).
UNROLL = 2

#: Vector register widths the paper studies (existing and futuristic).
WIDTHS = (128, 256)

#: Per-crack-count compiled wavefront-step templates.
_STEP_TEMPLATES: dict[int, EmitTemplate] = {}


def _step_template(cracks: int) -> EmitTemplate:
    """One wavefront step as a template (crack-expanded for 256-bit)."""
    template = _STEP_TEMPLATES.get(cracks)
    if template is not None:
        return template
    alu = OpClass.IALU
    c = cracks
    vload_len = 1 + 2 * (c - 1)
    # Forward slot positions (Carry references point at later slots);
    # asserted against the actual layout as it is built below.
    i_prof1 = 5
    i_prof2 = i_prof1 + vload_len
    i_g1 = i_prof2 + vload_len
    i_g2f = i_g1 + 2 * c - 1
    i_esub1 = i_g2f + 1
    i_emax = i_esub1 + 2
    i_hb = i_esub1 + 3
    i_fshf = i_hb + c + 1
    i_fsff = i_fshf + c
    i_fmax = i_fsff + 2
    i_fb = i_fsff + 3
    i_dadd = i_fb + c + 1
    i_h3 = i_dadd + 3
    i_best = i_dadd + 4

    slots: list[SlotSpec] = []

    def vperm_chain(site: str, sources: tuple) -> None:
        slots.append(SlotSpec(OpClass.VPERM, site, sources=sources))
        for crack in range(1, c):
            slots.append(SlotSpec(
                OpClass.VPERM, f"{site}.c{crack}",
                sources=(Slot(len(slots) - 1),),
            ))

    def vload_chain(site: str, source, base: str, offset: int = 0) -> None:
        slots.append(SlotSpec(
            OpClass.VLOAD, site, sources=(source,),
            base=base, offset=offset, size=16,
        ))
        for crack in range(1, c):
            slots.append(SlotSpec(alu, f"{site}.a{crack}", sources=(source,)))
            slots.append(SlotSpec(
                OpClass.VLOAD, f"{site}.c{crack}",
                sources=(Slot(len(slots) - 1),),
                base=base, offset=offset + 16 * crack, size=16,
            ))

    r_addr = Carry(0, init=Reg("addr"))
    r_vh = Carry(i_h3, init=Reg("vh"))
    slots.append(SlotSpec(alu, "step.addr1", sources=(r_addr,)))
    slots.append(SlotSpec(alu, "step.addr2", sources=(Slot(0),)))
    slots.append(SlotSpec(alu, "step.addr3", sources=(Slot(0),)))
    slots.append(SlotSpec(alu, "step.addr4", sources=(Slot(1),)))
    slots.append(SlotSpec(OpClass.ILOAD, "step.dbload", sources=(Slot(1),),
                          addr="dba", size=1))
    assert len(slots) == i_prof1
    vload_chain("step.prof1", Slot(4), "p1a")
    assert len(slots) == i_prof2
    vload_chain("step.prof2", Slot(4), "p1a", offset=16)
    assert len(slots) == i_g1
    vperm_chain("step.gather1", (Slot(i_prof2 - 1), Slot(i_g1 - 1)))
    vperm_chain("step.gather2", (Slot(i_g1 + c - 1), Reg("qblk")))
    assert len(slots) == i_g2f + 1 == i_esub1
    slots.append(SlotSpec(OpClass.VSIMPLE, "step.e_sub1", sources=(r_vh,)))
    slots.append(SlotSpec(OpClass.VSIMPLE, "step.e_sub2",
                          sources=(Carry(i_emax, init=Reg("ve")),)))
    slots.append(SlotSpec(OpClass.VSIMPLE, "step.e_max",
                          sources=(Slot(i_esub1), Slot(i_esub1 + 1))))
    assert len(slots) == i_hb
    slots.append(SlotSpec(OpClass.ILOAD, "step.hb_load", sources=(Slot(0),),
                          addr="hba", size=2))
    vperm_chain("step.f_shift_h", (r_vh, Slot(i_hb)))
    assert len(slots) == i_fshf
    vperm_chain("step.f_shift_f",
                (Carry(i_fmax, init=Reg("vf")), Slot(i_hb)))
    assert len(slots) == i_fsff
    slots.append(SlotSpec(OpClass.VSIMPLE, "step.f_sub1",
                          sources=(Slot(i_fshf - 1),)))
    slots.append(SlotSpec(OpClass.VSIMPLE, "step.f_sub2",
                          sources=(Slot(i_fsff - 1),)))
    slots.append(SlotSpec(OpClass.VSIMPLE, "step.f_max",
                          sources=(Slot(i_fsff), Slot(i_fsff + 1))))
    assert len(slots) == i_fb
    slots.append(SlotSpec(OpClass.ILOAD, "step.fb_load", sources=(Slot(0),),
                          addr="fba", size=2))
    vperm_chain("step.d_shift",
                (Carry(i_h3, lag=2, init=Reg("vh")), Slot(i_fb)))
    assert len(slots) == i_dadd
    slots.append(SlotSpec(OpClass.VSIMPLE, "step.d_add",
                          sources=(Slot(i_dadd - 1), Slot(i_g2f))))
    slots.append(SlotSpec(OpClass.VSIMPLE, "step.h_max1",
                          sources=(Slot(i_dadd), Slot(i_emax))))
    slots.append(SlotSpec(OpClass.VSIMPLE, "step.h_max2",
                          sources=(Slot(i_fmax),)))
    slots.append(SlotSpec(OpClass.VSIMPLE, "step.h_max3",
                          sources=(Slot(i_dadd + 1), Slot(i_dadd + 2))))
    assert len(slots) == i_h3 + 1 == i_best
    slots.append(SlotSpec(OpClass.VSIMPLE, "step.best",
                          sources=(Carry(i_best, init=Reg("vh")),
                                   Slot(i_h3)), key="best"))
    slots.append(SlotSpec(OpClass.ISTORE, "step.hb_store", gate="stb",
                          sources=(Slot(i_h3), Slot(i_fmax)),
                          addr="sta", size=4))
    slots.append(SlotSpec(alu, "step.tile_cmp", gate="tile",
                          sources=(Slot(0),)))
    slots.append(SlotSpec(OpClass.CTRL, "step.tile_loop", gate="tile",
                          taken="tl", sources=(Slot(len(slots) - 1),),
                          backward=True))
    template = EmitTemplate(f"sw_vmx.step.x{c}", slots)
    _STEP_TEMPLATES[cracks] = template
    return template


@lru_cache(maxsize=64)
def _subject_score(
    query_codes: tuple[int, ...],
    subject_codes: tuple[int, ...],
    matrix: ScoringMatrix,
    gaps: GapPenalties,
) -> int:
    """A finished subject's score, computed once per process.

    Both widths run over the same subjects (Table III's count runs and
    Fig. 8's paired traces), and the score depends on neither width nor
    trace, so the second kernel reuses the first one's scores.
    """
    return sw_score_codes(query_codes, subject_codes, matrix, gaps)


class SwVmxKernel(TracedKernel):
    """Instrumented vectorized Smith-Waterman database scan."""

    def __init__(
        self,
        width_bits: int = 128,
        matrix: ScoringMatrix = BLOSUM62,
        gaps: GapPenalties = PAPER_GAPS,
    ) -> None:
        if width_bits not in WIDTHS:
            raise ValueError(
                f"width_bits={width_bits!r} is not one of {WIDTHS}"
            )
        self.matrix = matrix
        self.gaps = gaps
        self.name = f"sw_vmx{width_bits}"
        #: 16-bit score lanes per vector register.
        self.lanes = width_bits // 16
        #: 256-bit permutes/memory ops crack into two 128-bit micro-ops.
        self.cracks = width_bits // 128

    def execute(
        self,
        builder: TraceBuilder,
        query: Sequence,
        database: SequenceDatabase,
        scores: dict[str, int],
    ) -> None:
        m = len(query.codes)
        lanes = self.lanes
        cracks = self.cracks
        template = _step_template(cracks)

        profile_base = builder.alloc("profile", self.matrix.size * m * 2)
        longest = max((len(s) for s in database), default=0)
        hb_base = builder.alloc("h_boundary", (longest + 1) * 2)
        fb_base = builder.alloc("f_boundary", (longest + 1) * 2)
        db_base = builder.alloc("db", database.residue_count)

        def emit_vperm(site: str, sources: tuple[int, ...]) -> int:
            # A 2x-wide permute on 128-bit hardware needs a cross-half
            # fixup that consumes the first half's result, so the
            # cracked micro-ops form a chain (this is why rg_vper grows
            # for the 256-bit variant).
            register = builder.vperm(site, sources)
            for crack in range(1, cracks):
                register = builder.vperm(f"{site}.c{crack}", (register,))
            return register

        def emit_vload(
            site: str, address: int, sources: tuple[int, ...]
        ) -> int:
            register = builder.vload(site, address, sources, size=16)
            for crack in range(1, cracks):
                r_addr = builder.ialu(f"{site}.a{crack}", sources)
                register = builder.vload(
                    f"{site}.c{crack}", address + 16 * crack, (r_addr,), size=16
                )
            return register

        db_cursor = db_base
        for subject in database:
            s = subject.codes
            n = len(s)
            subject_base = db_cursor
            db_cursor += n

            r_sub = builder.ialu("drv.subj.setup")
            builder.other("drv.subj.misc", (r_sub,))

            s_arr = np.asarray(s, dtype=np.int64)

            for r0 in range(0, m, lanes):
                last_lane = min(lanes, m - r0) - 1

                r_addr0 = builder.ialu("blk.addr", (r_sub,))
                r_qblk = emit_vload("blk.qload", profile_base + r0 * 2, (r_addr0,))
                r_vh = builder.vperm("blk.zero", (r_qblk,))
                r_ve = builder.vperm("blk.sent_e", ())
                r_vf = builder.vperm("blk.sent_f", ())
                r_vbest = r_vh

                # The step stream depends on lengths, residue codes and
                # block offsets only, so it is stamped in one bulk write.
                t_arr = np.arange(1, n + lanes, dtype=np.int64)
                min_tn = np.minimum(t_arr, n)
                db_index = min_tn - 1
                codes = s_arr[db_index]
                j_last_arr = t_arr - last_lane
                result = builder.stamp(template, n + lanes - 1, {
                    "addr": r_addr0,
                    "qblk": r_qblk,
                    "vh": r_vh,
                    "ve": r_ve,
                    "vf": r_vf,
                    "dba": subject_base + db_index,
                    "p1a": profile_base + (codes * m + r0) * 2,
                    "hba": hb_base + 2 * min_tn,
                    "fba": fb_base + 2 * min_tn,
                    "stb": (j_last_arr >= 1) & (j_last_arr <= n),
                    "sta": hb_base + 2 * j_last_arr,
                    "tile": (t_arr % UNROLL) == 0,
                    "tl": (t_arr + UNROLL) < (n + lanes),
                })

                r_vbest = result.last(
                    template.slot_index("best"), default=r_vbest
                )

                r_red = emit_vperm("blk.red_perm", (r_vbest,))
                builder.vsimple("blk.red_max", (r_red, r_vbest))
                r_cmp = builder.ialu("blk.cmp", (r_red,))
                builder.ctrl(
                    "blk.loop", taken=r0 + lanes < m, sources=(r_cmp,), backward=True
                )

            r_hist = builder.ialu("drv.hist.bin", (r_sub,))
            builder.istore("drv.hist.store", hb_base, (r_hist,), size=4)
            scores[subject.identifier] = _subject_score(
                query.codes, subject.codes, self.matrix, self.gaps
            )
