"""Top-level batch search entry points over all three applications.

This module is the seam between the alignment engines and everything
that schedules searches at scale (the ``search_shard`` runtime task
kind, the ``repro.serve`` service): one parameter type covering the
three paper applications, one engine constructor, one shard-scan call
that exploits the batched BLAST scanner, and serializers that turn
results into plain JSON-able dicts for caches and wire protocols.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.align.blast.engine import (
    BlastEngine,
    BlastFinalizer,
    BlastOptions,
    blast_scan_batch,
)
from repro.align.fasta.engine import FastaEngine, FastaOptions
from repro.align.ssearch import SsearchEngine, SsearchOptions
from repro.align.types import (
    GapPenalties,
    SearchHit,
    SearchResult,
    ShardScan,
)
from repro.bio.database import SequenceDatabase
from repro.bio.sequence import Sequence, as_sequence

#: The applications a search request may name (paper Table I).
ALGORITHMS = ("ssearch", "fasta", "blast")

#: Any of the three query-compiled engines (same scan_raw/finalize shape).
SearchEngine = BlastEngine | FastaEngine | SsearchEngine


@dataclass(frozen=True)
class SearchParams:
    """Algorithm selection plus the scoring knobs a request may set.

    Deliberately small: this is the *request-facing* parameter surface,
    and also the grouping key for dynamic batching (requests batch into
    one shard task only when their params match) and part of the
    ``search_shard`` cache key.
    """

    algorithm: str = "blast"
    best_count: int = 500
    gap_open: int = 10
    gap_extend: int = 1
    #: BLAST neighborhood threshold (``blastp -f``); ``None`` keeps the
    #: engine default.  Higher values trade sensitivity for speed by
    #: shrinking the lookup table (fewer word hits per subject).
    threshold: int | None = None

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; "
                f"expected one of {', '.join(ALGORITHMS)}"
            )
        if self.best_count < 1:
            raise ValueError("best_count must be positive")
        if self.threshold is not None and self.threshold < 1:
            raise ValueError("threshold must be positive when set")

    @property
    def gaps(self) -> GapPenalties:
        """The affine gap model these params describe."""
        return GapPenalties(open=self.gap_open, extend=self.gap_extend)

    def key(self) -> tuple:
        """Stable structural identity (batch grouping, cache keys)."""
        return (
            self.algorithm,
            self.best_count,
            self.gap_open,
            self.gap_extend,
            self.threshold,
        )

    @classmethod
    def from_key(cls, key: tuple) -> "SearchParams":
        """Rebuild params from :meth:`key` output."""
        algorithm, best_count, gap_open, gap_extend, threshold = key
        return cls(
            algorithm=str(algorithm),
            best_count=int(best_count),
            gap_open=int(gap_open),
            gap_extend=int(gap_extend),
            threshold=None if threshold is None else int(threshold),
        )


def make_engine(
    params: SearchParams, query: Sequence | str
) -> SearchEngine:
    """Compile a query into the engine ``params.algorithm`` names."""
    if params.algorithm == "ssearch":
        return SsearchEngine(
            query,
            SsearchOptions(best_count=params.best_count, gaps=params.gaps),
        )
    if params.algorithm == "fasta":
        return FastaEngine(
            query,
            FastaOptions(best_count=params.best_count, gaps=params.gaps),
        )
    return BlastEngine(query, blast_options(params))


def blast_options(params: SearchParams) -> BlastOptions:
    """BLAST engine options for one parameter set (shared by the engine
    and its finalizer)."""
    options = BlastOptions(best_count=params.best_count, gaps=params.gaps)
    if params.threshold is not None:
        options = replace(options, threshold=params.threshold)
    return options


def make_finalizer(
    params: SearchParams, query: Sequence | str
) -> SearchEngine | BlastFinalizer:
    """Build the cheapest object able to finalize shard scans.

    The merge side of a sharded search never scans, so for BLAST it
    skips query compilation (the lookup table) entirely; the other
    engines compile nothing heavy and are returned as-is.
    """
    if params.algorithm == "blast":
        return BlastFinalizer(query, blast_options(params))
    return make_engine(params, query)


def scan_shard(
    params: SearchParams,
    engines: list[SearchEngine],
    database: SequenceDatabase,
    shard_index: int,
    shard_count: int,
) -> list[ShardScan]:
    """Scan one database shard for a batch of query-compiled engines.

    Returns one :class:`ShardScan` per engine, in order.  BLAST batches
    share a single pass over the shard (word indices computed once per
    subject position); the raw scores are byte-identical to per-query
    ``scan_raw`` calls either way.
    """
    start, _ = database.shard_bounds(shard_count)[shard_index]
    shard = database.shard(shard_index, shard_count)
    if params.algorithm == "blast" and len(engines) > 1:
        return blast_scan_batch(engines, shard, offset=start)
    return [engine.scan_raw(shard, offset=start) for engine in engines]


def search_one(
    params: SearchParams,
    query: Sequence | str,
    database: SequenceDatabase,
) -> SearchResult:
    """Unsharded single-query search (the reference for shard merges)."""
    return make_engine(params, query).search(database)


def merge_shards(
    params: SearchParams,
    query: Sequence | str,
    scans: list[ShardScan],
    database_name: str,
) -> SearchResult:
    """Merge per-shard raw scans into the final ranked result.

    ``scans`` must be ordered by shard index so the concatenated raw
    entries are in database order — then the merged ranking (and every
    statistics annotation) is byte-identical to the unsharded scan.
    """
    return make_engine(params, query).finalize(list(scans), database_name)


# -- serialization (wire protocol + cache entries) ------------------------


def hit_to_dict(hit: SearchHit, rank: int | None = None) -> dict:
    """JSON-serializable form of one :class:`SearchHit`."""
    data = {
        "subject_id": hit.subject_id,
        "subject_index": hit.subject_index,
        "subject_length": hit.subject_length,
        "score": hit.score,
        "evalue": hit.evalue,
        "bit_score": hit.bit_score,
    }
    if rank is not None:
        data["rank"] = rank
    return data


def hit_from_dict(data: dict) -> SearchHit:
    """Rebuild a :class:`SearchHit` from :func:`hit_to_dict` output."""
    return SearchHit(
        score=int(data["score"]),
        subject_id=str(data["subject_id"]),
        subject_index=int(data["subject_index"]),
        subject_length=int(data["subject_length"]),
        evalue=float(data.get("evalue", float("inf"))),
        bit_score=float(data.get("bit_score", 0.0)),
    )


def result_to_dict(result: SearchResult) -> dict:
    """JSON-serializable form of one :class:`SearchResult`."""
    return {
        "query_id": result.query_id,
        "database_name": result.database_name,
        "sequences_searched": result.sequences_searched,
        "residues_searched": result.residues_searched,
        "hits": [
            hit_to_dict(hit, rank=rank)
            for rank, hit in enumerate(result.hits, start=1)
        ],
    }


def result_from_dict(data: dict) -> SearchResult:
    """Rebuild a :class:`SearchResult` from :func:`result_to_dict`."""
    return SearchResult(
        query_id=str(data["query_id"]),
        database_name=str(data["database_name"]),
        hits=tuple(hit_from_dict(entry) for entry in data["hits"]),
        sequences_searched=int(data["sequences_searched"]),
        residues_searched=int(data["residues_searched"]),
    )


def make_query(identifier: str, text: str) -> Sequence:
    """Build a query :class:`Sequence` from wire-level fields."""
    return as_sequence(text, identifier=identifier or "query")
