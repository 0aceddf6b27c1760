"""Traced FASTA34 kernel: k-tuple scan, region handling, banded opt.

Follows the three-stage FASTA pipeline of
:class:`repro.align.fasta.engine.FastaEngine` (scores are identical,
tested).  Stage 1 streams the subject against the small (20^2-bucket)
k-tuple table — unlike BLAST's 20^3-word table this fits comfortably in
L1, which is why FASTA is *not* memory-bound in the paper.  Stages 2-3
are branchy integer scanning and the banded DP, giving FASTA its
SSEARCH-like dependence on branch prediction.
"""

from __future__ import annotations


from repro.align.fasta.engine import FastaOptions, FastaScores
from repro.align.fasta.chaining import chain_regions
from repro.align.fasta.ktup import (
    DiagonalRegion,
    HIT_BONUS_PER_RESIDUE,
    DISTANCE_PENALTY,
    KtupleIndex,
)
from repro.bio.alphabet import STANDARD_AMINO_ACIDS
from repro.bio.database import SequenceDatabase
from repro.bio.sequence import Sequence
from repro.isa.builder import TraceBuilder
from repro.isa.emit import Carry, EmitTemplate, Reg, Sel, Slot, SlotSpec
from repro.isa.opcodes import OpClass
from repro.kernels.base import TracedKernel
from repro.kernels.dp_emit import banded_dp_traced

#: Stage-1 k-tuple scan block.  Stamped in hit-to-hit runs: the kernel
#: buffers per-offset operands until a bucket walk interrupts the
#: stream, stamps the run (hit offset inclusive), emits the walk call
#: by call, and threads ``r_ptr``/``r_head`` via the stamp result.
_SCAN_TEMPLATE = EmitTemplate("fasta.scan", [
    SlotSpec(OpClass.ILOAD, "scan.loads",
             sources=(Carry(1, init=Reg("ptr")),),
             base="sb", scale=1, size=1),
    SlotSpec(OpClass.IALU, "scan.shift",
             sources=(Slot(0), Carry(1, init=Reg("ptr")))),
    SlotSpec(OpClass.IALU, "scan.word", sources=(Slot(0),)),
    SlotSpec(OpClass.ILOAD, "scan.ktab", sources=(Slot(2),),
             addr="ka", size=8),
    SlotSpec(OpClass.IALU, "scan.test", sources=(Slot(3),)),
    SlotSpec(OpClass.CTRL, "scan.br_hit", taken="hit", sources=(Slot(4),)),
    SlotSpec(OpClass.CTRL, "scan.loop", gate="odd", taken="cont",
             backward=True),
])

#: Stage-3 per-residue rescoring block (the valid offsets of a region
#: form one contiguous run, so each region is a single stamp).
_RESC_TEMPLATE = EmitTemplate("fasta.resc", [
    SlotSpec(OpClass.ILOAD, "resc.loads",
             sources=(Carry(Sel(5, 2), init=Reg("run")),),
             addr="sa", size=1),
    SlotSpec(OpClass.ILOAD, "resc.prof", sources=(Slot(0),),
             addr="pa", size=2),
    SlotSpec(OpClass.IALU, "resc.add",
             sources=(Carry(Sel(5, 2), init=Reg("run")), Slot(1))),
    SlotSpec(OpClass.IALU, "resc.cmp", sources=(Slot(2),)),
    SlotSpec(OpClass.CTRL, "resc.br_reset", taken="reset",
             sources=(Slot(3),)),
    SlotSpec(OpClass.IALU, "resc.upd", gate="upd", sources=(Slot(2),)),
    SlotSpec(OpClass.CTRL, "resc.loop", taken="cont", backward=True),
])


class FastaKernel(TracedKernel):
    """Instrumented FASTA database scan."""

    name = "fasta34"

    def __init__(self, options: FastaOptions = FastaOptions()) -> None:
        self.options = options

    def execute(
        self,
        builder: TraceBuilder,
        query: Sequence,
        database: SequenceDatabase,
        scores: dict[str, int],
    ) -> None:
        options = self.options
        q = query.codes
        m = len(q)
        ktup = options.ktup
        index = KtupleIndex(q, ktup=ktup)

        ktab_base = builder.alloc("ktab", (STANDARD_AMINO_ACIDS**ktup) * 8)
        buckets_base = builder.alloc("buckets", max(m, 1) * 4)
        longest = max((len(s) for s in database), default=0)
        hitlist_base = builder.alloc("hitlist", (m + longest) * 8)
        profile_base = builder.alloc("profile", options.matrix.size * m * 2)
        row_base = builder.alloc("dp_rows", (m + 1) * 8)
        db_base = builder.alloc("db", database.residue_count)

        db_cursor = db_base
        for subject in database:
            s = subject.codes
            n = len(s)
            subject_base = db_cursor
            db_cursor += n

            r_sub = builder.ialu("drv.subj.setup")
            builder.other("drv.subj.misc", (r_sub,))

            # ---------------- stage 1: k-tuple diagonal scan ----------
            hits = self._scan(
                builder, index, s, n, m, subject_base, ktab_base,
                buckets_base, hitlist_base, r_sub,
            )

            # ---------------- stage 2: diagonal run scoring -----------
            raw_regions: list[DiagonalRegion] = []
            for diagonal in hits:
                offsets = hits[diagonal]
                r_dptr = builder.ialu("run.diag_setup", (r_sub,))
                running = 0
                best = 0
                run_start = 0
                best_end = 0
                previous_end = None
                r_run = r_dptr
                for offset in offsets:
                    bonus = HIT_BONUS_PER_RESIDUE * ktup
                    if previous_end is None:
                        gap_cost = 0
                    else:
                        distance = offset - previous_end
                        if distance <= 0:
                            bonus = HIT_BONUS_PER_RESIDUE * (ktup + distance)
                            gap_cost = 0
                        else:
                            gap_cost = distance * DISTANCE_PENALTY

                    r_off = builder.iload(
                        "run.load",
                        hitlist_base + (diagonal + m) * 8,
                        (r_dptr,),
                        size=4,
                    )
                    r_run = builder.ialu("run.score", (r_run, r_off))
                    r_cmp = builder.ialu("run.cmp", (r_run,))

                    if running == 0:
                        run_start = offset
                        running = max(0, bonus)
                        best = running
                        best_end = offset + ktup
                        builder.ctrl("run.br_fresh", taken=True, sources=(r_cmp,))
                    else:
                        running = running - gap_cost + bonus
                        if running <= 0:
                            builder.ctrl(
                                "run.br_reset", taken=True, sources=(r_cmp,)
                            )
                            if best > 0:
                                raw_regions.append(
                                    DiagonalRegion(
                                        diagonal, run_start, best_end, best
                                    )
                                )
                            # The triggering hit seeds a fresh run
                            # (matching scan_diagonal()).
                            run_start = offset
                            running = HIT_BONUS_PER_RESIDUE * ktup
                            best = running
                            best_end = offset + ktup
                            previous_end = offset + ktup
                            continue
                        builder.ctrl(
                            "run.br_better",
                            taken=running > best,
                            sources=(r_cmp,),
                        )
                        if running > best:
                            best = running
                            best_end = offset + ktup
                            r_run = builder.ialu("run.upd_best", (r_run,))
                    previous_end = offset + ktup
                if best > 0:
                    raw_regions.append(
                        DiagonalRegion(diagonal, run_start, best_end, best)
                    )

            raw_regions.sort(key=lambda region: (-region.score, region.diagonal))
            raw_regions = raw_regions[: options.best_regions]

            # ---------------- stage 3: rescoring + chaining -----------
            rescored: list[DiagonalRegion] = []
            for region in raw_regions:
                rescored.append(
                    self._rescore(
                        builder, region, q, s, profile_base, subject_base, r_sub
                    )
                )
            rescored = [region for region in rescored if region.score > 0]
            init1 = max((region.score for region in rescored), default=0)
            initn = chain_regions(rescored, join_penalty=options.join_penalty)
            for pair_index in range(len(rescored) * (len(rescored) - 1) // 2):
                r_c = builder.ialu("chain.cmp", (r_sub,))
                builder.ctrl(
                    "chain.br", taken=pair_index % 2 == 0, sources=(r_c,)
                )

            # ---------------- stage 4: banded optimization ------------
            opt = 0
            r_thr = builder.ialu("drv.thr_cmp", (r_sub,))
            builder.ctrl(
                "drv.br_opt",
                taken=initn >= options.opt_threshold and bool(rescored),
                sources=(r_thr,),
            )
            if initn >= options.opt_threshold and rescored:
                best_region = max(rescored, key=lambda region: region.score)
                opt = banded_dp_traced(
                    builder,
                    "opt",
                    q,
                    s,
                    center=best_region.diagonal,
                    width=options.opt_band,
                    matrix=options.matrix,
                    gaps=options.gaps,
                    profile_base=profile_base,
                    row_base=row_base,
                    subject_base=subject_base,
                    r_ctx=r_thr,
                )

            stage_scores = FastaScores(init1=init1, initn=initn, opt=opt)
            r_hist = builder.ialu("drv.hist.bin", (r_sub,))
            builder.istore("drv.hist.store", hitlist_base, (r_hist,), size=4)
            scores[subject.identifier] = stage_scores.reported

    def _scan(
        self,
        builder: TraceBuilder,
        index: KtupleIndex,
        s,
        n: int,
        m: int,
        subject_base: int,
        ktab_base: int,
        buckets_base: int,
        hitlist_base: int,
        r_sub: int,
    ) -> dict[int, list[int]]:
        """Template-stamped stage-1 scan, flushed run-by-run at hits."""
        ktup = self.options.ktup
        hits: dict[int, list[int]] = {}
        total = max(0, n - ktup + 1)
        state = {"ptr": r_sub, "start": 0}
        ka: list[int] = []
        hit: list[bool] = []
        odd: list[bool] = []
        cont: list[bool] = []

        def flush(upto: int):
            count = upto - state["start"]
            if count <= 0:
                return None
            result = builder.stamp(_SCAN_TEMPLATE, count, {
                "ptr": state["ptr"],
                "sb": subject_base + state["start"],
                "ka": ka,
                "hit": hit,
                "odd": odd,
                "cont": cont,
            })
            state["ptr"] = result.last(1, default=state["ptr"])
            state["start"] = upto
            ka.clear()
            hit.clear()
            odd.clear()
            cont.clear()
            return result

        for so in range(total):
            word = 0
            valid = True
            for offset in range(ktup):
                code = s[so + offset]
                if code >= STANDARD_AMINO_ACIDS:
                    valid = False
                    break
                word = word * STANDARD_AMINO_ACIDS + code
            positions = index.positions(word) if valid else ()
            ka.append(ktab_base + max(word, 0) * 8)
            hit.append(bool(positions))
            odd.append(so % 2 == 1)
            cont.append(so + 1 < n)
            if positions:
                result = flush(so + 1)
                r_head = result.last(3, default=state["ptr"])
                self._emit_bucket_walk(
                    builder, hits, positions, so, m, buckets_base,
                    hitlist_base, r_head,
                )
        flush(total)
        return hits

    def _emit_bucket_walk(
        self,
        builder: TraceBuilder,
        hits: dict[int, list[int]],
        positions,
        so: int,
        m: int,
        buckets_base: int,
        hitlist_base: int,
        r_head: int,
    ) -> None:
        """Bucket-list walk for one hit offset, emitted call by call."""
        for bucket_pos, qo in enumerate(positions):
            diagonal = so - qo
            hits.setdefault(diagonal, []).append(so)
            r_qo = builder.iload(
                "scan.bucket", buckets_base + qo * 4, (r_head,), size=4
            )
            r_d = builder.ialu("scan.diag", (r_qo,))
            builder.istore(
                "scan.record",
                hitlist_base + (diagonal + m) * 8,
                (r_d,),
                size=8,
            )
            builder.ctrl(
                "scan.bucket_loop",
                taken=bucket_pos + 1 < len(positions),
                backward=True,
            )

    def _rescore(
        self,
        builder: TraceBuilder,
        region: DiagonalRegion,
        q,
        s,
        profile_base: int,
        subject_base: int,
        r_ctx: int,
    ) -> DiagonalRegion:
        """Matrix rescoring of one region, as one template stamp.

        Mirrors :func:`repro.align.fasta.ktup.rescore_region`.  A
        region's in-query offsets form one contiguous run, so the whole
        rescoring loop is a single stamp.
        """
        m = len(q)
        matrix = self.options.matrix
        best = 0
        running = 0
        best_start = region.subject_start
        best_end = region.subject_start
        run_start = region.subject_start
        r_run = builder.ialu("resc.setup", (r_ctx,))

        lo = max(region.subject_start, region.diagonal)
        hi = min(region.subject_end, region.diagonal + m)
        count = max(0, hi - lo)
        sa: list[int] = []
        pa: list[int] = []
        reset_mask: list[bool] = []
        upd_mask: list[bool] = []
        cont: list[bool] = []
        for k in range(count):
            subject_offset = lo + k
            query_offset = subject_offset - region.diagonal
            value = matrix.score(q[query_offset], s[subject_offset])
            sa.append(subject_base + subject_offset)
            pa.append(
                profile_base + (s[subject_offset] * m + query_offset) * 2
            )
            if running == 0:
                run_start = subject_offset
            running += value
            reset = running <= 0
            reset_mask.append(reset)
            upd = False
            if reset:
                running = 0
            elif running > best:
                best = running
                best_start = run_start
                best_end = subject_offset + 1
                upd = True
            upd_mask.append(upd)
            cont.append(subject_offset + 1 < region.subject_end)
        if count:
            builder.stamp(_RESC_TEMPLATE, count, {
                "run": r_run,
                "sa": sa,
                "pa": pa,
                "reset": reset_mask,
                "upd": upd_mask,
                "cont": cont,
            })
        return DiagonalRegion(
            diagonal=region.diagonal,
            subject_start=best_start,
            subject_end=best_end,
            score=best,
        )
