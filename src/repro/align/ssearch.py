"""SSEARCH-style database search driver.

Reproduces the behaviour of the SSEARCH program from the FASTA toolset
as configured in the paper (Table I: ``-q -H -p -b 500 -d 0 -s BL62
-f 11 -g 1``): protein query against a protein database, rigorous
Smith-Waterman score for every database sequence, report the best 500
scores with a score histogram and no alignments (``-d 0``).

The pairwise scorer is a parameter (``sw_score_swat`` by default, or
the plain ``sw_score`` recurrence); both give the same scores, so
search results are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

from repro.align.smith_waterman import sw_score_swat
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

#: Signature shared by all score-only SW kernels.
Scorer = Callable[..., int]


@dataclass(frozen=True)
class SsearchOptions:
    """Driver options (the subset of SSEARCH flags the paper uses)."""

    best_count: int = 500           # -b 500
    matrix: ScoringMatrix = BLOSUM62  # -s BL62
    gaps: GapPenalties = PAPER_GAPS   # -f 11 -g 1
    show_histogram: bool = True       # -H


class SupportsScore(Protocol):
    """Anything that can produce a score for query vs subject codes."""

    def __call__(self, query, subject, matrix, gaps) -> int: ...


class SsearchEngine:
    """A query-bound SSEARCH driver with the shard-scan interface.

    Mirrors ``BlastEngine``/``FastaEngine`` so the batch search layer
    (:mod:`repro.align.batch`) can treat all three applications
    uniformly: ``scan_raw`` over any shard, ``finalize`` to merge.
    """

    def __init__(
        self,
        query: Sequence | str,
        options: SsearchOptions = SsearchOptions(),
        scorer: Scorer = sw_score_swat,
    ) -> None:
        self.query = as_sequence(query, identifier="query")
        self.options = options
        self.scorer = scorer

    def scan_raw(
        self, database: SequenceDatabase, offset: int = 0
    ) -> ShardScan:
        """Raw shard scan: rigorous SW scores for every subject."""
        raw: list[tuple[int, int, int, str]] = []
        residues = 0
        for local, subject in enumerate(database):
            residues += len(subject)
            score = self.scorer(
                self.query,
                subject,
                matrix=self.options.matrix,
                gaps=self.options.gaps,
            )
            raw.append(
                (score, len(subject), offset + local, subject.identifier)
            )
        return ShardScan(
            raw=tuple(raw), sequences=len(database), residues=residues
        )

    def finalize(
        self, scans: list[ShardScan], database_name: str
    ) -> SearchResult:
        """Merge raw shard scans into the ranked SSEARCH result."""
        hits = [
            SearchHit(
                score=score,
                subject_id=identifier,
                subject_index=index,
                subject_length=length,
            )
            for scan in scans
            for score, length, index, identifier in scan.raw
        ]
        hits.sort(key=lambda hit: (-hit.score, hit.subject_index))
        return SearchResult(
            query_id=self.query.identifier,
            database_name=database_name,
            hits=tuple(hits[: self.options.best_count]),
            sequences_searched=sum(scan.sequences for scan in scans),
            residues_searched=sum(scan.residues for scan in scans),
        )

    def search(self, database: SequenceDatabase) -> SearchResult:
        """Search the whole database (scan + finalize in one step)."""
        return self.finalize([self.scan_raw(database)], database.name)


def search(
    query: Sequence | str,
    database: SequenceDatabase,
    options: SsearchOptions = SsearchOptions(),
    scorer: Scorer = sw_score_swat,
) -> SearchResult:
    """Search ``query`` against every sequence of ``database``.

    Returns hits for all database sequences, sorted by descending score
    then database order, truncated to ``options.best_count`` (the
    driver's ``-b`` limit).
    """
    return SsearchEngine(query, options, scorer).search(database)


def format_report(result: SearchResult, options: SsearchOptions = SsearchOptions(),
                  top: int = 20) -> str:
    """Render a text report in the spirit of SSEARCH's output."""
    lines = [
        f"query: {result.query_id}  database: {result.database_name} "
        f"({result.sequences_searched} sequences, "
        f"{result.residues_searched} residues)",
    ]
    if options.show_histogram:
        lines.append("score histogram (bin: count)")
        for bin_start, count in result.score_histogram().items():
            lines.append(f"  {bin_start:>5}: {'*' * min(count, 60)} {count}")
    lines.append(f"best {min(top, len(result.hits))} scores:")
    for hit in result.top(top):
        lines.append(
            f"  {hit.subject_id:<16} len={hit.subject_length:<5} s-w={hit.score}"
        )
    return "\n".join(lines)
