"""Alignment applications: Smith-Waterman, BLAST, FASTA."""

from repro.align.banded import banded_sw_score
from repro.align.batch import (
    ALGORITHMS,
    SearchParams,
    make_engine,
    merge_shards,
    scan_shard,
    search_one,
)
from repro.align.blast.engine import BlastEngine, BlastOptions, blast_search
from repro.align.fasta.engine import FastaEngine, FastaOptions, fasta_search
from repro.align.statistics import (
    GumbelFit,
    empirical_lambda,
    empirical_score_survey,
    fit_gumbel,
)
from repro.align.smith_waterman import smith_waterman, sw_score, sw_score_swat
from repro.align.ssearch import (
    SsearchEngine,
    SsearchOptions,
    format_report,
    search as ssearch,
)
from repro.align.types import (
    AlignmentResult,
    GapPenalties,
    PAPER_GAPS,
    SearchHit,
    SearchResult,
    ShardScan,
)

__all__ = [
    "ALGORITHMS",
    "SearchParams",
    "make_engine",
    "merge_shards",
    "scan_shard",
    "search_one",
    "banded_sw_score",
    "BlastEngine",
    "BlastOptions",
    "blast_search",
    "FastaEngine",
    "FastaOptions",
    "fasta_search",
    "GumbelFit",
    "empirical_lambda",
    "empirical_score_survey",
    "fit_gumbel",
    "smith_waterman",
    "sw_score",
    "sw_score_swat",
    "SsearchEngine",
    "SsearchOptions",
    "format_report",
    "ssearch",
    "AlignmentResult",
    "GapPenalties",
    "PAPER_GAPS",
    "SearchHit",
    "SearchResult",
    "ShardScan",
]
