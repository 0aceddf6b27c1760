"""BLASTP pipeline: word finding, extension, statistics, engine."""

from repro.align.blast.engine import (
    BlastEngine,
    BlastOptions,
    BlastStatistics,
    blast_search,
)
from repro.align.blast.extension import (
    UngappedExtension,
    extend_gapped,
    extend_ungapped,
)
from repro.align.blast.karlin import (
    InvalidScoringSystemError,
    KarlinParameters,
    estimate_parameters,
    expected_score,
    solve_lambda,
)
from repro.align.blast.wordfinder import (
    LookupTable,
    TwoHitScanner,
    WordHit,
    word_index,
)

__all__ = [
    "BlastEngine",
    "BlastOptions",
    "BlastStatistics",
    "blast_search",
    "UngappedExtension",
    "extend_gapped",
    "extend_ungapped",
    "InvalidScoringSystemError",
    "KarlinParameters",
    "estimate_parameters",
    "expected_score",
    "solve_lambda",
    "LookupTable",
    "TwoHitScanner",
    "WordHit",
    "word_index",
]
