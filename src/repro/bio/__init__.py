"""Biology substrate: alphabets, sequences, matrices, databases."""

from repro.bio.alphabet import DNA, PROTEIN, Alphabet, AlphabetError
from repro.bio.database import DatabaseStats, SequenceDatabase
from repro.bio.fasta_io import (
    FastaFormatError,
    format_fasta,
    parse_fasta,
    parse_fasta_text,
    read_fasta,
    write_fasta,
)
from repro.bio.complexity import (
    MaskedRegion,
    find_low_complexity,
    mask_sequence,
    masked_fraction,
    window_entropy,
)
from repro.bio.matrices import BLOSUM50, BLOSUM62, PAM250, ScoringMatrix, get_matrix
from repro.bio.queries import (
    DEFAULT_QUERY_ACCESSION,
    TABLE2_QUERIES,
    QueryDescriptor,
    all_queries,
    default_query,
    make_query,
    query_by_accession,
)
from repro.bio.sequence import Sequence, as_sequence
from repro.bio.synthetic import (
    SWISSPROT_COMPOSITION,
    MutationModel,
    SyntheticDatabaseConfig,
    generate_database,
    homolog_of,
    random_length,
    random_protein,
)

__all__ = [
    "DNA",
    "PROTEIN",
    "Alphabet",
    "AlphabetError",
    "DatabaseStats",
    "SequenceDatabase",
    "FastaFormatError",
    "format_fasta",
    "parse_fasta",
    "parse_fasta_text",
    "read_fasta",
    "write_fasta",
    "MaskedRegion",
    "find_low_complexity",
    "mask_sequence",
    "masked_fraction",
    "window_entropy",
    "BLOSUM50",
    "BLOSUM62",
    "PAM250",
    "ScoringMatrix",
    "get_matrix",
    "DEFAULT_QUERY_ACCESSION",
    "TABLE2_QUERIES",
    "QueryDescriptor",
    "all_queries",
    "default_query",
    "make_query",
    "query_by_accession",
    "Sequence",
    "as_sequence",
    "SWISSPROT_COMPOSITION",
    "MutationModel",
    "SyntheticDatabaseConfig",
    "generate_database",
    "homolog_of",
    "random_length",
    "random_protein",
]
