"""Traced NCBI-BLAST kernel: word scan, two-hit seeds, extensions.

Mirrors paper listing 1's character: the scan loop reads packed
database residues, probes a compact presence vector, and — on a hit —
chases pointers through the big lookup-cell table, the per-diagonal
last-hit array, and the query-offset buckets.  Those scattered accesses
over a table that does not fit in small L1 caches are exactly the
memory behaviour behind BLAST's mm_dl1/mm_dl2 traumas in the paper;
the extension stages add matrix-lookup ALU chains (rg_fix).

Scores equal :class:`repro.align.blast.engine.BlastEngine`'s (tested).
"""

from __future__ import annotations


from repro.align.blast.engine import BlastOptions
from repro.align.blast.wordfinder import LookupTable, word_index
from repro.bio.database import SequenceDatabase
from repro.bio.sequence import Sequence
from repro.isa.builder import TraceBuilder
from repro.isa.emit import INTERPRET_BELOW, Carry, EmitTemplate, Reg, Slot, SlotSpec
from repro.isa.opcodes import OpClass
from repro.kernels.base import TracedKernel
from repro.kernels.dp_emit import banded_dp_traced

#: Word-scan block, stamped in hit-to-hit runs (the hit's cell fetch,
#: bucket walk, and extensions interleave per-call emissions mid-stream).
_SCAN_TEMPLATE = EmitTemplate("blast.scan", [
    SlotSpec(OpClass.ILOAD, "scan.readdb",
             sources=(Carry(1, init=Reg("ptr")),),
             base="sb", scale=1, size=1),
    SlotSpec(OpClass.IALU, "scan.unpack1",
             sources=(Slot(0), Carry(1, init=Reg("ptr")))),
    SlotSpec(OpClass.IALU, "scan.unpack2", sources=(Slot(0),)),
    SlotSpec(OpClass.IALU, "scan.unpack3", sources=(Slot(2),)),
    SlotSpec(OpClass.IALU, "scan.index", sources=(Slot(3),)),
    SlotSpec(OpClass.IALU, "scan.pv_addr", sources=(Slot(4),)),
    SlotSpec(OpClass.ILOAD, "scan.pv", sources=(Slot(5),),
             addr="pva", size=4),
    SlotSpec(OpClass.IALU, "scan.pv_test", sources=(Slot(6), Slot(4))),
    SlotSpec(OpClass.CTRL, "scan.br_hit", taken="hit", sources=(Slot(7),)),
    SlotSpec(OpClass.CTRL, "scan.loop", gate="odd", taken="cont",
             backward=True),
])

#: Per-direction x-drop extension step blocks (sites embed direction).
_EXT_TEMPLATES: dict[str, EmitTemplate] = {}


def _ext_template(direction: str) -> EmitTemplate:
    template = _EXT_TEMPLATES.get(direction)
    if template is not None:
        return template
    template = EmitTemplate(f"blast.ext.{direction}", [
        SlotSpec(OpClass.ILOAD, f"ext.{direction}.s",
                 sources=(Carry(3, init=Reg("run")),), addr="sa", size=1),
        SlotSpec(OpClass.IALU, f"ext.{direction}.row", sources=(Slot(0),)),
        SlotSpec(OpClass.ILOAD, f"ext.{direction}.m", sources=(Slot(1),),
                 addr="ma", size=2),
        SlotSpec(OpClass.IALU, f"ext.{direction}.add",
                 sources=(Carry(3, init=Reg("run")), Slot(2))),
        SlotSpec(OpClass.IALU, f"ext.{direction}.ptr", sources=(Slot(3),)),
        SlotSpec(OpClass.IALU, f"ext.{direction}.cmp",
                 sources=(Slot(3), Slot(4))),
        SlotSpec(OpClass.CTRL, f"ext.{direction}.br", taken="go",
                 sources=(Slot(5),)),
    ])
    _EXT_TEMPLATES[direction] = template
    return template


class BlastKernel(TracedKernel):
    """Instrumented BLASTP database scan."""

    name = "blast"

    def __init__(self, options: BlastOptions = BlastOptions()) -> None:
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
        word_size = options.word_size
        window = options.window

        lookup_query = query
        if options.mask_query:
            from repro.bio.complexity import mask_sequence

            lookup_query = mask_sequence(query)
        lookup = LookupTable(
            lookup_query.codes,
            matrix=options.matrix,
            word_size=word_size,
            threshold=options.threshold,
        )

        # Data layout mirroring NCBI BLAST's structures: a compact
        # presence vector (1 bit/word), the cell table (8 B/word), the
        # bucket area holding query offsets, the matrix, the diagonal
        # last-hit array, and the streamed database.
        table_words = len(lookup)
        pv_base = builder.alloc("presence", table_words // 8 + 8)
        cells_base = builder.alloc("cells", table_words * 8)
        buckets_base = builder.alloc("buckets", max(lookup.entry_count, 1) * 4)
        matrix_base = builder.alloc("matrix", options.matrix.size**2 * 2)
        query_base = builder.alloc("query", max(m, 1))
        longest = max((len(s) for s in database), default=0)
        diag_base = builder.alloc("diag", (m + longest) * 4)
        profile_base = builder.alloc("profile", options.matrix.size * m * 2)
        row_base = builder.alloc("dp_rows", (m + 1) * 8)
        db_base = builder.alloc("db", database.residue_count)

        # Bucket offsets per word index (for address generation).
        bucket_offset: dict[int, int] = {}
        cursor = 0
        for index in range(table_words):
            positions = lookup.lookup(index)
            if positions:
                bucket_offset[index] = cursor
                cursor += len(positions)

        bases = {
            "pv": pv_base,
            "cells": cells_base,
            "buckets": buckets_base,
            "matrix": matrix_base,
            "query": query_base,
            "diag": diag_base,
            "profile": profile_base,
            "row": row_base,
        }
        db_cursor = db_base
        for subject in database:
            s = subject.codes
            n = len(s)
            subject_base = db_cursor
            db_cursor += n

            r_sub = builder.ialu("drv.subj.setup")
            builder.other("drv.subj.misc", (r_sub,))

            best = self._scan(
                builder, q, s, n, m, lookup, bucket_offset, bases,
                subject_base, r_sub,
            )

            r_hist = builder.ialu("drv.hist.bin", (r_sub,))
            builder.istore("drv.hist.store", diag_base, (r_hist,), size=4)
            scores[subject.identifier] = best

    @staticmethod
    def _emit_scan_step(
        builder: TraceBuilder,
        r_ptr: int,
        subject_addr: int,
        pv_addr: int,
        hit: bool,
        odd: bool,
        cont: bool,
    ) -> tuple[int, int]:
        """One ``_SCAN_TEMPLATE`` iteration emitted call by call, for
        runs too short to stamp; returns (ptr, word-index) regs."""
        r_byte = builder.iload("scan.readdb", subject_addr, (r_ptr,), size=1)
        r_ptr = builder.ialu("scan.unpack1", (r_byte, r_ptr))
        r_idx = builder.ialu("scan.unpack2", (r_byte,))
        r_idx = builder.ialu("scan.unpack3", (r_idx,))
        r_idx = builder.ialu("scan.index", (r_idx,))
        r_pvaddr = builder.ialu("scan.pv_addr", (r_idx,))
        r_pv = builder.iload("scan.pv", pv_addr, (r_pvaddr,), size=4)
        r_bit = builder.ialu("scan.pv_test", (r_pv, r_idx))
        builder.ctrl("scan.br_hit", taken=hit, sources=(r_bit,))
        if odd:
            builder.ctrl("scan.loop", taken=cont, backward=True)
        return r_ptr, r_idx

    def _scan(
        self,
        builder: TraceBuilder,
        q,
        s,
        n: int,
        m: int,
        lookup: LookupTable,
        bucket_offset: dict[int, int],
        bases: dict[str, int],
        subject_base: int,
        r_sub: int,
    ) -> int:
        """Template-stamped scan loop, flushed run-by-run at word hits."""
        word_size = self.options.word_size
        pv_base = bases["pv"]
        best = 0
        bias = m - 1
        last_hit = [-(10**9)] * (bias + max(n, 1))
        extended_until: dict[int, int] = {}

        total = max(0, n - word_size + 1)
        state = {"ptr": r_sub, "start": 0}
        pva: list[int] = []
        hit: list[bool] = []
        odd: list[bool] = []
        cont: list[bool] = []

        def flush(upto: int) -> int:
            count = upto - state["start"]
            r_idx = state["ptr"]
            if count <= 0:
                return r_idx
            if count < INTERPRET_BELOW:
                # Stamp setup costs more than these few instructions:
                # replay the buffered run step by step (identical
                # stream either way).
                r_ptr = state["ptr"]
                start = state["start"]
                for k in range(count):
                    r_ptr, r_idx = self._emit_scan_step(
                        builder, r_ptr, subject_base + start + k,
                        pva[k], hit[k], odd[k], cont[k],
                    )
                state["ptr"] = r_ptr
            else:
                # Lists, not arrays: stamp_columns converts once.
                result = builder.stamp(_SCAN_TEMPLATE, count, {
                    "ptr": state["ptr"],
                    "sb": subject_base + state["start"],
                    "pva": pva,
                    "hit": hit,
                    "odd": odd,
                    "cont": cont,
                })
                state["ptr"] = result.last(1, default=state["ptr"])
                r_idx = result.last(4, default=state["ptr"])
            state["start"] = upto
            pva.clear()
            hit.clear()
            odd.clear()
            cont.clear()
            return r_idx

        for so in range(total):
            index = word_index(s, so, word_size)
            positions = lookup.lookup(index)
            pva.append(pv_base + (max(index, 0) >> 3))
            hit.append(bool(positions))
            odd.append(so % 2 == 1)
            cont.append(so + 1 < n)
            if not positions:
                continue
            r_idx = flush(so + 1)
            best = self._process_hit(
                builder, q, s, so, index, positions, bias, last_hit,
                extended_until, best, bucket_offset, bases, subject_base,
                r_idx,
            )
        flush(total)
        return best

    def _process_hit(
        self,
        builder: TraceBuilder,
        q,
        s,
        so: int,
        index: int,
        positions,
        bias: int,
        last_hit: list[int],
        extended_until: dict[int, int],
        best: int,
        bucket_offset: dict[int, int],
        bases: dict[str, int],
        subject_base: int,
        r_idx: int,
    ) -> int:
        """Cell fetch, bucket walk, extensions for one word hit.

        Emitted call by call: the walk is short and data-dependent, so
        only the extensions inside it are stamped.
        """
        options = self.options
        word_size = options.word_size
        window = options.window

        # Hit: fetch the cell entry, then walk the bucket.
        r_cell = builder.iload(
            "hit.cell", bases["cells"] + index * 8, (r_idx,), size=8
        )
        base = bucket_offset[index]
        r_walk = r_cell
        for bucket_pos, qo in enumerate(positions):
            r_qo = builder.iload(
                "hit.bucket",
                bases["buckets"] + (base + bucket_pos) * 4,
                (r_walk,),
                size=4,
            )
            r_diag = builder.ialu("hit.diag", (r_qo,))
            r_diag = builder.ialu("hit.diag_addr", (r_diag,))
            diagonal = so - qo + bias
            previous = last_hit[diagonal]
            distance = so - previous
            r_last = builder.iload(
                "hit.lasthit", bases["diag"] + diagonal * 4, (r_diag,), size=4
            )
            r_dist = builder.ialu("hit.dist", (r_last,))
            two_hit = word_size <= distance <= window
            builder.ctrl("hit.br_two", taken=two_hit, sources=(r_dist,))
            if two_hit or distance > window:
                last_hit[diagonal] = so
                builder.istore(
                    "hit.update", bases["diag"] + diagonal * 4, (r_diag,), size=4
                )
            builder.ctrl(
                "hit.bucket_loop",
                taken=bucket_pos + 1 < len(positions),
                backward=True,
            )
            if not two_hit:
                continue
            real_diag = so - qo
            if extended_until.get(real_diag, -1) >= so:
                continue

            score, subject_end = self._extend_ungapped(
                builder, q, s, qo, so, bases["matrix"], bases["query"],
                subject_base, r_diag
            )
            extended_until[real_diag] = subject_end
            if score >= options.gap_trigger:
                score = banded_dp_traced(
                    builder,
                    "gapx",
                    q,
                    s,
                    center=real_diag,
                    width=options.gapped_band,
                    matrix=options.matrix,
                    gaps=options.gaps,
                    profile_base=bases["profile"],
                    row_base=bases["row"],
                    subject_base=subject_base,
                    r_ctx=r_diag,
                )
            if score > best:
                best = score
        return best

    def _extend_ungapped(
        self,
        builder: TraceBuilder,
        q,
        s,
        query_offset: int,
        subject_offset: int,
        matrix_base: int,
        query_base: int,
        subject_base: int,
        r_seed: int,
    ) -> tuple[int, int]:
        """Template-stamped x-drop extension (one stamp per direction).

        Returns (score, subject_end) like
        :func:`repro.align.blast.extension.extend_ungapped`.
        """
        options = self.options
        rows = options.matrix.rows
        word_size = options.word_size
        x_drop = options.x_drop_ungapped
        msize = options.matrix.size

        state = {"run": builder.ialu("ext.init", (r_seed,))}

        def stamp_direction(direction: str, steps) -> None:
            count = len(steps)
            if not count:
                return
            if count < INTERPRET_BELOW:
                # X-drop runs are usually a handful of residues; direct
                # emission beats the stamp machinery there.
                run = state["run"]
                for qp, sp, stop in steps:
                    r_s = builder.iload(
                        f"ext.{direction}.s", subject_base + sp,
                        (run,), size=1,
                    )
                    r_row = builder.ialu(f"ext.{direction}.row", (r_s,))
                    r_m = builder.iload(
                        f"ext.{direction}.m",
                        matrix_base + (q[qp] * msize + s[sp]) * 2,
                        (r_row,), size=2,
                    )
                    run = builder.ialu(f"ext.{direction}.add", (run, r_m))
                    r_ptr = builder.ialu(f"ext.{direction}.ptr", (run,))
                    r_cmp = builder.ialu(
                        f"ext.{direction}.cmp", (run, r_ptr)
                    )
                    builder.ctrl(
                        f"ext.{direction}.br", taken=not stop,
                        sources=(r_cmp,),
                    )
                state["run"] = run
                return
            result = builder.stamp(_ext_template(direction), count, {
                "run": state["run"],
                "sa": [subject_base + sp for _, sp, _ in steps],
                "ma": [matrix_base + (q[qp] * msize + s[sp]) * 2
                       for qp, sp, _ in steps],
                "go": [not stop for _, _, stop in steps],
            })
            state["run"] = result.last(3, default=state["run"])

        # Seed word score.
        score = 0
        steps: list[tuple[int, int, bool]] = []
        for offset in range(word_size):
            score += rows[q[query_offset + offset]][s[subject_offset + offset]]
            steps.append(
                (query_offset + offset, subject_offset + offset, False)
            )
        stamp_direction("seed", steps)

        # Right extension.
        best = score
        right = 0
        running = score
        q0, s0 = query_offset + word_size, subject_offset + word_size
        limit = min(len(q) - q0, len(s) - s0)
        steps = []
        for step in range(limit):
            running += rows[q[q0 + step]][s[s0 + step]]
            stop = best - running > x_drop
            if running > best:
                best = running
                right = step + 1
            steps.append((q0 + step, s0 + step, stop))
            if stop:
                break
        stamp_direction("right", steps)

        # Left extension.
        total_best = best
        running = best
        limit = min(query_offset, subject_offset)
        steps = []
        for step in range(1, limit + 1):
            running += rows[q[query_offset - step]][s[subject_offset - step]]
            stop = total_best - running > x_drop
            if running > total_best:
                total_best = running
            steps.append(
                (query_offset - step, subject_offset - step, stop)
            )
            if stop:
                break
        stamp_direction("left", steps)

        return total_best, subject_offset + word_size + right
