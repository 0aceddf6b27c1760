"""BLASTP search engine.

Ties the word finder, two-hit scanner, and extension stages into a
database search equivalent to the paper's ``blastp -G 10 -E 1 -b 0``
run: protein query, gap open 10 / extend 1, scores-only reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.align.banded import banded_sw_scores_batch
from repro.align.blast.extension import (
    DEFAULT_GAP_TRIGGER,
    DEFAULT_GAPPED_BAND,
    DEFAULT_X_DROP_UNGAPPED,
    UngappedExtension,
    extend_ungapped,
)
from repro.align.blast.karlin import KarlinParameters, estimate_parameters
from repro.align.blast.wordfinder import (
    DEFAULT_THRESHOLD,
    DEFAULT_WINDOW,
    DEFAULT_WORD_SIZE,
    DiagonalTracker,
    LookupTable,
    word_index,
)
from repro.align.types import (
    GapPenalties,
    PAPER_GAPS,
    SearchHit,
    SearchResult,
    ShardScan,
)
from repro.bio.database import SequenceDatabase
from repro.bio.matrices import BLOSUM62, ScoringMatrix
from repro.bio.sequence import Sequence, as_sequence


@dataclass(frozen=True)
class BlastOptions:
    """BLASTP parameters (paper Table I: ``-G 10 -E 1 -b 0``).

    ``mask_query`` applies the SEG-style low-complexity filter to the
    query before the lookup table is built (real BLAST's default; off
    here so the reproduction suite stays calibrated on raw queries).
    """

    word_size: int = DEFAULT_WORD_SIZE
    threshold: int = DEFAULT_THRESHOLD
    window: int = DEFAULT_WINDOW
    x_drop_ungapped: int = DEFAULT_X_DROP_UNGAPPED
    gap_trigger: int = DEFAULT_GAP_TRIGGER
    gapped_band: int = DEFAULT_GAPPED_BAND
    gaps: GapPenalties = PAPER_GAPS
    matrix: ScoringMatrix = BLOSUM62
    best_count: int = 500
    mask_query: bool = False


@dataclass
class BlastStatistics:
    """Stage counters for one search (used by workload characterization)."""

    words_scanned: int = 0
    single_hits: int = 0
    two_hits: int = 0
    ungapped_extensions: int = 0
    gapped_extensions: int = 0
    lookup_entries: int = 0
    extra: dict[str, int] = field(default_factory=dict)


class BlastEngine:
    """A query-compiled BLASTP searcher.

    Building the engine compiles the query into a neighborhood lookup
    table once; ``search`` then scans any number of databases, exactly
    like NCBI BLAST's setup/scan split.
    """

    def __init__(
        self,
        query: Sequence | str,
        options: BlastOptions = BlastOptions(),
    ) -> None:
        self.query = as_sequence(query, identifier="query")
        self.options = options
        lookup_query = self.query
        if options.mask_query:
            from repro.bio.complexity import mask_sequence

            lookup_query = mask_sequence(self.query)
        self.lookup = LookupTable(
            lookup_query.codes,
            matrix=options.matrix,
            word_size=options.word_size,
            threshold=options.threshold,
        )
        self.karlin: KarlinParameters = estimate_parameters(options.matrix)
        self.statistics = BlastStatistics(lookup_entries=self.lookup.entry_count)

    def score_subject(self, subject: Sequence) -> int:
        """Best gapped score of the query against one subject."""
        scorer = _SubjectScorer(self, subject)
        codes = subject.codes
        word_size = self.options.word_size
        for subject_offset in range(len(codes) - word_size + 1):
            scorer.feed(
                word_index(codes, subject_offset, word_size), subject_offset
            )
        scorer.resolve_gapped()
        return scorer.finish()

    def scan_raw(
        self, database: SequenceDatabase, offset: int = 0
    ) -> ShardScan:
        """Raw shard scan: per-subject best scores with global indices."""
        raw: list[tuple[int, int, int, str]] = []
        for local, subject in enumerate(database):
            score = self.score_subject(subject)
            if score <= 0:
                continue
            raw.append(
                (score, len(subject), offset + local, subject.identifier)
            )
        return ShardScan(
            raw=tuple(raw),
            sequences=len(database),
            residues=database.residue_count,
        )

    def finalize(
        self, scans: list[ShardScan], database_name: str
    ) -> SearchResult:
        """Merge raw shard scans into the ranked, E-value-annotated result.

        E-values use the residue count summed over all shards, so a
        sharded scan finalizes to exactly the unsharded search result.
        """
        residues = sum(scan.residues for scan in scans)
        sequences = sum(scan.sequences for scan in scans)
        query_length = len(self.query)
        hits = [
            SearchHit(
                score=score,
                subject_id=identifier,
                subject_index=index,
                subject_length=length,
                evalue=self.karlin.evalue(score, query_length, residues),
                bit_score=self.karlin.bit_score(score),
            )
            for scan in scans
            for score, length, index, identifier in scan.raw
        ]
        hits.sort(key=lambda hit: (-hit.score, hit.subject_index))
        return SearchResult(
            query_id=self.query.identifier,
            database_name=database_name,
            hits=tuple(hits[: self.options.best_count]),
            sequences_searched=sequences,
            residues_searched=residues,
        )

    def search(self, database: SequenceDatabase) -> SearchResult:
        """Search the database, returning scored hits (E-value annotated)."""
        return self.finalize([self.scan_raw(database)], database.name)


class BlastFinalizer:
    """Merge-side twin of :class:`BlastEngine`.

    Ranking shard scans needs only the query length, the Karlin-Altschul
    statistics, and ``best_count`` — not the neighborhood lookup table —
    so the serving merge path uses this to avoid recompiling every
    query it finalizes.  ``finalize`` is shared with the engine, which
    keeps the two byte-identical by construction.
    """

    def __init__(
        self, query: Sequence | str, options: BlastOptions = BlastOptions()
    ) -> None:
        self.query = as_sequence(query, identifier="query")
        self.options = options
        self.karlin: KarlinParameters = estimate_parameters(options.matrix)

    finalize = BlastEngine.finalize


class _SubjectScorer:
    """Incremental scoring of one subject for one engine.

    Consumes shared ``word_index`` values position by position, so a
    batch of engines can scan a subject in a single pass (see
    :func:`blast_scan_batch`), and reproduces the single-query
    ``score_subject`` loop exactly.
    """

    def __init__(self, engine: BlastEngine, subject: Sequence) -> None:
        self.engine = engine
        self.subject = subject
        self.tracker = DiagonalTracker(
            engine.lookup,
            len(engine.query),
            len(subject),
            window=engine.options.window,
        )
        # Remember extended regions per diagonal to skip repeat seeds.
        self.extended_until: dict[int, int] = {}
        self.best = 0
        #: Seeds past the gap trigger, awaiting banded gapped extension.
        #: Deferred so a whole scan's extensions run as one stacked DP
        #: (:func:`repro.align.banded.banded_sw_scores_batch`).
        self.pending: list[UngappedExtension] = []

    def feed(self, index: int, subject_offset: int) -> None:
        """Process one subject word position."""
        hits = self.tracker.feed(index, subject_offset)
        if hits:
            self._extend(hits)

    def feed_bucket(self, bucket, subject_offset: int) -> None:
        """Process an already-looked-up bucket (batched scan path)."""
        hits = self.tracker.feed_bucket(bucket, subject_offset)
        if hits:
            self._extend(hits)

    def _extend(self, hits) -> None:
        """Run the extension cascade for qualified two-hit seeds."""
        engine = self.engine
        options = engine.options
        stats = engine.statistics
        subject = self.subject
        extended_until = self.extended_until
        for hit in hits:
            stats.two_hits += 1
            if extended_until.get(hit.diagonal, -1) >= hit.subject_offset:
                continue
            stats.ungapped_extensions += 1
            ungapped = extend_ungapped(
                engine.query.codes,
                subject.codes,
                hit.query_offset,
                hit.subject_offset,
                options.word_size,
                options.matrix,
                x_drop=options.x_drop_ungapped,
            )
            extended_until[hit.diagonal] = ungapped.subject_end
            score = ungapped.score
            if score >= options.gap_trigger:
                # The gapped score supersedes the ungapped one; defer
                # the banded DP so extensions batch across the scan.
                stats.gapped_extensions += 1
                self.pending.append(ungapped)
                continue
            if score > self.best:
                self.best = score

    def resolve_gapped(self) -> None:
        """Run this scorer's deferred gapped extensions (one batch)."""
        if not self.pending:
            return
        options = self.engine.options
        scores = banded_sw_scores_batch(
            [
                (
                    self.engine.query.codes,
                    self.subject.codes,
                    seed.subject_start - seed.query_start,
                )
                for seed in self.pending
            ],
            width=options.gapped_band,
            matrix=options.matrix,
            gaps=options.gaps,
        )
        self.pending.clear()
        for score in scores:
            if score > self.best:
                self.best = score

    def finish(self) -> int:
        """Fold scan statistics into the engine; returns the best score."""
        stats = self.engine.statistics
        stats.single_hits += self.tracker.single_hits
        stats.words_scanned += max(
            0, len(self.subject) - self.engine.options.word_size + 1
        )
        return self.best


def blast_scan_batch(
    engines: list[BlastEngine],
    database: SequenceDatabase,
    offset: int = 0,
) -> list[ShardScan]:
    """Scan one shard once for a whole batch of query-compiled engines.

    The SWAPHI-style batched database scan: each subject's word indices
    are computed a single time and fed to every engine's incremental
    scorer, so the per-position scan cost is shared across the batch
    while per-query results stay byte-identical to ``scan_raw``.
    Engines must share a word size (callers group batches by options).
    """
    if not engines:
        return []
    word_size = engines[0].options.word_size
    if any(e.options.word_size != word_size for e in engines):
        raise ValueError("batched scan requires one word size per batch")
    # Combined lookup: one probe per subject position for the whole
    # batch.  Each occupied word index maps to (engine position, that
    # engine's bucket), so per-engine state transitions — and therefore
    # results and statistics — are exactly the solo-scan ones.
    combined: list[list | None] = [None] * len(engines[0].lookup)
    for position, engine in enumerate(engines):
        cells = engine.lookup._cells
        for index in engine.lookup.occupied:
            entry = (position, cells[index])
            slot = combined[index]
            if slot is None:
                combined[index] = [entry]
            else:
                slot.append(entry)
    # Pass 1 — scan every subject, collecting per-(engine, subject)
    # base scores and deferred gapped-extension seeds.  Records keep
    # (engine position, subject metadata, best) in subject-major order
    # so pass 3 rebuilds each raw list exactly as ``scan_raw`` would.
    records: list[list] = []
    gapped_jobs: dict[tuple, list[tuple]] = {}
    gapped_targets: dict[tuple, list[int]] = {}
    residues = 0
    for local, subject in enumerate(database):
        residues += len(subject)
        scorers = [_SubjectScorer(engine, subject) for engine in engines]
        codes = subject.codes
        for subject_offset in range(len(codes) - word_size + 1):
            index = word_index(codes, subject_offset, word_size)
            if index < 0:
                continue
            entries = combined[index]
            if entries is None:
                continue
            for engine_position, bucket in entries:
                scorers[engine_position].feed_bucket(
                    bucket, subject_offset
                )
        for position, scorer in enumerate(scorers):
            record = [
                position, local, len(subject), subject.identifier,
                scorer.finish(),
            ]
            record_index = len(records)
            records.append(record)
            if scorer.pending:
                engine = engines[position]
                options = engine.options
                group = (
                    options.gapped_band,
                    options.matrix.name,
                    options.gaps,
                )
                jobs = gapped_jobs.setdefault(group, [])
                targets = gapped_targets.setdefault(group, [])
                for seed in scorer.pending:
                    jobs.append((
                        engine.query.codes,
                        codes,
                        seed.subject_start - seed.query_start,
                    ))
                    targets.append(record_index)
                scorer.pending.clear()

    # Pass 2 — the whole scan's gapped extensions as stacked banded
    # DPs, one call per distinct (band, matrix, gaps) option set.
    for group, jobs in gapped_jobs.items():
        band, matrix_name, gaps = group
        matrix = next(
            engine.options.matrix for engine in engines
            if engine.options.matrix.name == matrix_name
        )
        scores = banded_sw_scores_batch(
            jobs, width=band, matrix=matrix, gaps=gaps
        )
        for record_index, score in zip(gapped_targets[group], scores):
            record = records[record_index]
            if score > record[4]:
                record[4] = score

    # Pass 3 — rebuild the per-engine raw hit lists in database order.
    raw: list[list[tuple[int, int, int, str]]] = [[] for _ in engines]
    for position, local, length, identifier, score in records:
        if score > 0:
            raw[position].append(
                (score, length, offset + local, identifier)
            )
    return [
        ShardScan(
            raw=tuple(entries),
            sequences=len(database),
            residues=residues,
        )
        for entries in raw
    ]


def blast_search(
    query: Sequence | str,
    database: SequenceDatabase,
    options: BlastOptions = BlastOptions(),
) -> SearchResult:
    """One-shot BLASTP search convenience wrapper."""
    return BlastEngine(query, options).search(database)
