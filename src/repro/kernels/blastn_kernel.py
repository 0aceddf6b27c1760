"""Traced nucleotide BLAST kernel — paper listing 1, literally.

Listing 1 shows ``BlastNtWordFinder`` extending a hit leftward by
unpacking bases out of the 2-bit compressed database
(``READDB_UNPACK_BASE_4(p) != *--q``).  This kernel traces exactly that
code path: the scan loop loads one packed *byte* and unpacks four
bases from it with shift/mask ALU ops, maintains the rolling word, and
probes the exact-word lookup table; extensions compare unpacked bases
one at a time through the same macros.

Scores equal :class:`repro.align.blast.nucleotide.BlastnEngine`'s
(tested).  The kernel is an extension beyond the paper's evaluated
suite (Table I runs blastp), provided because listing 1 itself is
nucleotide code.
"""

from __future__ import annotations


from repro.align.blast.nucleotide import BlastnEngine, BlastnOptions
from repro.bio.database import SequenceDatabase
from repro.bio.packed import BASES_PER_BYTE, PackedSequence, unpack_base
from repro.bio.sequence import Sequence
from repro.isa.builder import TraceBuilder
from repro.isa.emit import Carry, EmitTemplate, Reg, Slot, SlotSpec
from repro.kernels.base import TracedKernel
from repro.isa.opcodes import OpClass

#: Packed-scan block over *positions*: the byte load is gated to every
#: fourth iteration, the probe slots to the ambiguity/short outcomes,
#: and the byte-close branch to the byte's final position.  Stamped in
#: hit-to-hit runs like the BLAST scan.
_SCAN_TEMPLATE = EmitTemplate("blastn.scan", [
    SlotSpec(OpClass.ILOAD, "scan.loadp", gate="first",
             sources=(Carry(4, init=Reg("w0")),), addr="pa", size=1),
    SlotSpec(OpClass.IALU, "scan.unpack_shift",
             sources=(Carry(0, lag=0, init=Reg("b0")),)),
    SlotSpec(OpClass.IALU, "scan.unpack_mask", sources=(Slot(1),)),
    SlotSpec(OpClass.CTRL, "scan.br_ambig", gate="ambig", taken=True,
             sources=(Slot(2),)),
    SlotSpec(OpClass.IALU, "scan.word_roll", gate="ok",
             sources=(Carry(4, init=Reg("w0")), Slot(2))),
    SlotSpec(OpClass.CTRL, "scan.br_short", gate="short", taken=True,
             sources=(Slot(4),)),
    SlotSpec(OpClass.ILOAD, "scan.table", gate="probe",
             sources=(Slot(4),), addr="ta", size=4),
    SlotSpec(OpClass.IALU, "scan.test", gate="probe", sources=(Slot(6),)),
    SlotSpec(OpClass.CTRL, "scan.br_hit", gate="probe", taken="hitk",
             sources=(Slot(7),)),
    SlotSpec(OpClass.CTRL, "scan.byte_loop", gate="last", taken="bcont",
             backward=True),
])

#: Per-direction base-compare extension blocks (sites embed direction).
_EXT_TEMPLATES: dict[str, EmitTemplate] = {}


def _ext_template(direction: str) -> EmitTemplate:
    template = _EXT_TEMPLATES.get(direction)
    if template is not None:
        return template
    template = EmitTemplate(f"blastn.ext.{direction}", [
        SlotSpec(OpClass.ILOAD, f"ext.{direction}.loadp",
                 sources=(Carry(4, init=Reg("run")),), addr="pa", size=1),
        SlotSpec(OpClass.IALU, f"ext.{direction}.unpack",
                 sources=(Slot(0),)),
        SlotSpec(OpClass.ILOAD, f"ext.{direction}.loadq",
                 sources=(Carry(4, init=Reg("run")),), addr="qa", size=1),
        SlotSpec(OpClass.IALU, f"ext.{direction}.cmp",
                 sources=(Slot(1), Slot(2))),
        SlotSpec(OpClass.IALU, f"ext.{direction}.add",
                 sources=(Carry(4, init=Reg("run")), Slot(3))),
        SlotSpec(OpClass.CTRL, f"ext.{direction}.br", taken="go",
                 sources=(Slot(3),)),
    ])
    _EXT_TEMPLATES[direction] = template
    return template


class BlastnKernel(TracedKernel):
    """Instrumented blastn scan over packed subjects."""

    name = "blastn"

    def __init__(self, options: BlastnOptions = BlastnOptions()) -> None:
        self.options = options

    def execute(
        self,
        builder: TraceBuilder,
        query: Sequence,
        database: SequenceDatabase,
        scores: dict[str, int],
    ) -> None:
        options = self.options
        engine = BlastnEngine(query, options)
        word_size = options.word_size

        table_base = builder.alloc("table", (4**word_size // 8) * 8)
        buckets_base = builder.alloc("buckets", max(len(query), 1) * 4)
        longest = max((len(s) for s in database), default=0)
        diag_base = builder.alloc("diag", (len(query) + longest + 1) * 4)
        query_base = builder.alloc("query", max(len(query), 1))
        db_base = builder.alloc("db", database.residue_count // 4 + 8)

        db_cursor = db_base
        for subject in database:
            packed = PackedSequence.from_sequence(subject)
            subject_base = db_cursor
            db_cursor += packed.packed_bytes

            r_sub = builder.ialu("drv.subj.setup")
            builder.other("drv.subj.misc", (r_sub,))

            best = self._traced_scan(
                builder, engine, packed,
                table_base, buckets_base, diag_base, query_base,
                subject_base, r_sub,
            )
            scores[subject.identifier] = best

    def _traced_scan(
        self,
        builder: TraceBuilder,
        engine: BlastnEngine,
        packed: PackedSequence,
        table_base: int,
        buckets_base: int,
        diag_base: int,
        query_base: int,
        subject_base: int,
        r_ctx: int,
    ) -> int:
        """Replicate BlastnEngine.score_subject with emission."""
        scan = (
            self._scan_templated
            if builder.use_templates
            else self._scan_scalar
        )
        return scan(
            builder, engine, packed, table_base, buckets_base, diag_base,
            query_base, subject_base, r_ctx,
        )

    def _scan_scalar(
        self,
        builder: TraceBuilder,
        engine: BlastnEngine,
        packed: PackedSequence,
        table_base: int,
        buckets_base: int,
        diag_base: int,
        query_base: int,
        subject_base: int,
        r_ctx: int,
    ) -> int:
        """Per-call scalar scan (the ``emit_mode="scalar"`` path)."""
        options = self.options
        word_size = options.word_size
        mask = (1 << (2 * word_size)) - 1
        subject_text = packed.unpack().text
        ambiguous = set(packed.ambiguous)
        base_code = {"A": 0, "C": 1, "G": 2, "T": 3}

        best = 0
        seen_diagonals: dict[int, int] = {}
        word = 0
        valid = 0
        position = 0
        r_word = builder.ialu("scan.word_init", (r_ctx,))
        for byte_index, byte in enumerate(packed.packed):
            # One compressed byte feeds four scan steps.
            r_byte = builder.iload(
                "scan.loadp", subject_base + byte_index, (r_word,), size=1
            )
            for slot in range(BASES_PER_BYTE):
                if position >= packed.length:
                    break
                engine.words_scanned += 1
                # READDB_UNPACK_BASE: shift + mask.
                r_base = builder.ialu("scan.unpack_shift", (r_byte,))
                r_base = builder.ialu("scan.unpack_mask", (r_base,))
                if position in ambiguous:
                    builder.ctrl("scan.br_ambig", taken=True, sources=(r_base,))
                    valid = 0
                    word = 0
                    position += 1
                    continue
                base = unpack_base(byte, slot)
                word = ((word << 2) | base_code[base]) & mask
                r_word = builder.ialu("scan.word_roll", (r_word, r_base))
                valid += 1
                position += 1
                if valid < word_size:
                    builder.ctrl("scan.br_short", taken=True, sources=(r_word,))
                    continue
                hits = engine.lookup.lookup(word)
                r_probe = builder.iload(
                    "scan.table",
                    table_base + (word % (4**word_size // 8)),
                    (r_word,),
                    size=4,
                )
                r_test = builder.ialu("scan.test", (r_probe,))
                builder.ctrl("scan.br_hit", taken=bool(hits), sources=(r_test,))
                if not hits:
                    continue
                best = self._bucket_walk(
                    builder, engine, subject_text, hits,
                    position - word_size, seen_diagonals, best,
                    buckets_base, diag_base, query_base, subject_base,
                    r_test,
                )
            builder.ctrl(
                "scan.byte_loop",
                taken=byte_index + 1 < packed.packed_bytes,
                backward=True,
            )
        return best

    def _scan_templated(
        self,
        builder: TraceBuilder,
        engine: BlastnEngine,
        packed: PackedSequence,
        table_base: int,
        buckets_base: int,
        diag_base: int,
        query_base: int,
        subject_base: int,
        r_ctx: int,
    ) -> int:
        """Template-stamped packed scan, flushed run-by-run at hits.

        The stamp iterates per unpacked *position*; the hit's bucket
        walk interrupts the stream before the byte-close branch, so a
        hit flush suppresses that iteration's ``scan.byte_loop`` slot
        and re-emits it scalar after the walk when the hit sits on the
        byte's final position.
        """
        options = self.options
        word_size = options.word_size
        mask = (1 << (2 * word_size)) - 1
        subject_text = packed.unpack().text
        ambiguous = set(packed.ambiguous)
        base_code = {"A": 0, "C": 1, "G": 2, "T": 3}
        table_mod = 4**word_size // 8
        length = packed.length
        packed_bytes = packed.packed_bytes

        best = 0
        seen_diagonals: dict[int, int] = {}
        word = 0
        valid = 0
        r_init = builder.ialu("scan.word_init", (r_ctx,))
        state = {"w0": r_init, "b0": r_init, "start": 0}
        pa: list[int] = []
        first: list[bool] = []
        ambig_m: list[bool] = []
        ok: list[bool] = []
        short_m: list[bool] = []
        probe: list[bool] = []
        hitk: list[bool] = []
        ta: list[int] = []
        last_m: list[bool] = []
        bcont: list[bool] = []

        def flush(upto: int):
            count = upto - state["start"]
            if count <= 0:
                return None
            result = builder.stamp(_SCAN_TEMPLATE, count, {
                "w0": state["w0"],
                "b0": state["b0"],
                "pa": pa,
                "ta": ta,
                "first": first,
                "ambig": ambig_m,
                "ok": ok,
                "short": short_m,
                "probe": probe,
                "hitk": hitk,
                "last": last_m,
                "bcont": bcont,
            })
            state["w0"] = result.last(4, default=state["w0"])
            state["b0"] = result.last(0, default=state["b0"])
            state["start"] = upto
            for buffer in (pa, first, ambig_m, ok, short_m, probe, hitk,
                           ta, last_m, bcont):
                buffer.clear()
            return result

        for position in range(length):
            byte_index = position // BASES_PER_BYTE
            slot = position % BASES_PER_BYTE
            byte = packed.packed[byte_index]
            byte_last = slot == BASES_PER_BYTE - 1 or position == length - 1
            engine.words_scanned += 1
            pa.append(subject_base + byte_index)
            first.append(slot == 0)
            last_m.append(byte_last)
            bcont.append(byte_index + 1 < packed_bytes)

            if position in ambiguous:
                valid = 0
                word = 0
                ambig_m.append(True)
                ok.append(False)
                short_m.append(False)
                probe.append(False)
                hitk.append(False)
                ta.append(0)
                continue
            ambig_m.append(False)
            ok.append(True)
            base = unpack_base(byte, slot)
            word = ((word << 2) | base_code[base]) & mask
            valid += 1
            if valid < word_size:
                short_m.append(True)
                probe.append(False)
                hitk.append(False)
                ta.append(0)
                continue
            short_m.append(False)
            probe.append(True)
            ta.append(table_base + (word % table_mod))
            hits = engine.lookup.lookup(word)
            hitk.append(bool(hits))
            if not hits:
                continue

            # Flush through the hit position, byte-close suppressed.
            last_m[-1] = False
            result = flush(position + 1)
            r_test = result.last(7, default=state["w0"])
            best = self._bucket_walk(
                builder, engine, subject_text, hits,
                position + 1 - word_size, seen_diagonals, best,
                buckets_base, diag_base, query_base, subject_base,
                r_test,
            )
            if byte_last:
                builder.ctrl(
                    "scan.byte_loop",
                    taken=byte_index + 1 < packed_bytes,
                    backward=True,
                )
        flush(length)
        return best

    def _bucket_walk(
        self,
        builder: TraceBuilder,
        engine: BlastnEngine,
        subject_text: str,
        hits,
        subject_offset: int,
        seen_diagonals: dict[int, int],
        best: int,
        buckets_base: int,
        diag_base: int,
        query_base: int,
        subject_base: int,
        r_test: int,
    ) -> int:
        """Bucket walk + extensions for one word hit (shared verbatim)."""
        word_size = self.options.word_size
        for bucket_pos, query_offset in enumerate(hits):
            engine.word_hits += 1
            r_qo = builder.iload(
                "hit.bucket",
                buckets_base + query_offset * 4,
                (r_test,),
                size=4,
            )
            diagonal = subject_offset - query_offset
            r_diag = builder.ialu("hit.diag", (r_qo,))
            r_seen = builder.iload(
                "hit.seen",
                diag_base + ((diagonal + len(engine.query.text)) * 4),
                (r_diag,),
                size=4,
            )
            repeat = seen_diagonals.get(diagonal, -1) >= subject_offset
            builder.ctrl("hit.br_seen", taken=repeat, sources=(r_seen,))
            builder.ctrl(
                "hit.bucket_loop",
                taken=bucket_pos + 1 < len(hits),
                backward=True,
            )
            if repeat:
                continue
            engine.extensions += 1
            score = self._traced_extension(
                builder, engine, subject_text, query_offset,
                subject_offset, query_base, subject_base, r_diag,
            )
            seen_diagonals[diagonal] = subject_offset + word_size
            builder.istore(
                "hit.update",
                diag_base + ((diagonal + len(engine.query.text)) * 4),
                (r_diag,),
                size=4,
            )
            if score > best:
                best = score
        return best

    def _extension_templated(
        self,
        builder: TraceBuilder,
        engine: BlastnEngine,
        subject_text: str,
        query_offset: int,
        subject_offset: int,
        query_base: int,
        subject_base: int,
        r_seed: int,
    ) -> int:
        """Template-stamped base-compare extension (one stamp/direction)."""
        options = self.options
        query_text = engine.query.text
        word_size = options.word_size
        score = options.match * word_size
        state = {"run": builder.ialu("ext.init", (r_seed,))}

        def stamp_direction(direction: str, steps) -> None:
            count = len(steps)
            if not count:
                return
            result = builder.stamp(_ext_template(direction), count, {
                "run": state["run"],
                "pa": [subject_base + sp // BASES_PER_BYTE
                       for _, sp, _ in steps],
                "qa": [query_base + qp for qp, _, _ in steps],
                "go": [not stop for _, _, stop in steps],
            })
            state["run"] = result.last(4, default=state["run"])

        best = score
        running = score
        q, s = query_offset + word_size, subject_offset + word_size
        limit = min(len(query_text) - q, len(subject_text) - s)
        steps: list[tuple[int, int, bool]] = []
        for step in range(limit):
            running += (
                options.match
                if query_text[q + step] == subject_text[s + step]
                else options.mismatch
            )
            stop = best - running > options.x_drop
            if running > best:
                best = running
            steps.append((q + step, s + step, stop))
            if stop:
                break
        stamp_direction("right", steps)

        running = best
        total_best = best
        limit = min(query_offset, subject_offset)
        steps = []
        for step in range(1, limit + 1):
            running += (
                options.match
                if query_text[query_offset - step]
                == subject_text[subject_offset - step]
                else options.mismatch
            )
            stop = total_best - running > options.x_drop
            if running > total_best:
                total_best = running
            steps.append(
                (query_offset - step, subject_offset - step, stop)
            )
            if stop:
                break
        stamp_direction("left", steps)
        return total_best

    def _traced_extension(
        self,
        builder: TraceBuilder,
        engine: BlastnEngine,
        subject_text: str,
        query_offset: int,
        subject_offset: int,
        query_base: int,
        subject_base: int,
        r_seed: int,
    ) -> int:
        """Ungapped extension; dispatches on the builder's emit mode."""
        extend = (
            self._extension_templated
            if builder.use_templates
            else self._extension_scalar
        )
        return extend(
            builder, engine, subject_text, query_offset, subject_offset,
            query_base, subject_base, r_seed,
        )

    def _extension_scalar(
        self,
        builder: TraceBuilder,
        engine: BlastnEngine,
        subject_text: str,
        query_offset: int,
        subject_offset: int,
        query_base: int,
        subject_base: int,
        r_seed: int,
    ) -> int:
        """Ungapped extension with per-base unpack emission."""
        options = self.options
        query_text = engine.query.text
        word_size = options.word_size
        score = options.match * word_size
        r_run = builder.ialu("ext.init", (r_seed,))

        def emit_step(direction: str, q_pos: int, s_pos: int, stop: bool) -> None:
            nonlocal r_run
            # p = *(subject0 + s_off ...); unpack; compare with *--q.
            r_p = builder.iload(
                f"ext.{direction}.loadp",
                subject_base + s_pos // BASES_PER_BYTE,
                (r_run,),
                size=1,
            )
            r_b = builder.ialu(f"ext.{direction}.unpack", (r_p,))
            r_q = builder.iload(
                f"ext.{direction}.loadq", query_base + q_pos, (r_run,), size=1
            )
            r_cmp = builder.ialu(f"ext.{direction}.cmp", (r_b, r_q))
            r_run = builder.ialu(f"ext.{direction}.add", (r_run, r_cmp))
            builder.ctrl(f"ext.{direction}.br", taken=not stop, sources=(r_cmp,))

        best = score
        running = score
        q, s = query_offset + word_size, subject_offset + word_size
        limit = min(len(query_text) - q, len(subject_text) - s)
        for step in range(limit):
            running += (
                options.match
                if query_text[q + step] == subject_text[s + step]
                else options.mismatch
            )
            stop = best - running > options.x_drop
            if running > best:
                best = running
            emit_step("right", q + step, s + step, stop)
            if stop:
                break

        running = best
        total_best = best
        limit = min(query_offset, subject_offset)
        for step in range(1, limit + 1):
            running += (
                options.match
                if query_text[query_offset - step]
                == subject_text[subject_offset - step]
                else options.mismatch
            )
            stop = total_best - running > options.x_drop
            if running > total_best:
                total_best = running
            emit_step("left", query_offset - step, subject_offset - step, stop)
            if stop:
                break
        return total_best
