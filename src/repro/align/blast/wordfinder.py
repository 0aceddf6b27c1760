"""BLAST word finding: neighborhood words, lookup table, two-hit scan.

This is the stage the paper's profiling attributes ~75% of BLAST's time
to (``BlastNtWordFinder``/``BlastWordFinder``), and the stage whose
scattered table lookups make BLAST the most memory-bound of the five
applications (paper listing 1 shows its pointer-heavy inner code).

The protein word finder works in three steps:

1. *Neighborhood generation* — for every ``w``-mer of the query, find
   all ``w``-mers whose substitution score against it reaches the
   threshold ``T`` (branch-and-bound over the alphabet).
2. *Lookup table* — map each neighborhood word (an integer in base-20)
   to the query positions it represents.
3. *Two-hit scan* — slide over the subject; every word occurrence is
   looked up, and a hit fires extension only if another hit on the same
   diagonal occurred within ``window`` residues (Altschul 1997
   two-hit heuristic), tracked in a per-diagonal last-hit array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.bio.alphabet import STANDARD_AMINO_ACIDS
from repro.bio.matrices import BLOSUM62, ScoringMatrix

#: Default BLASTP word size and neighborhood threshold.
DEFAULT_WORD_SIZE = 3
DEFAULT_THRESHOLD = 11
#: Default two-hit window (residues along the diagonal).
DEFAULT_WINDOW = 40


def word_index(codes, start: int, word_size: int) -> int:
    """Base-20 integer index of the ``w``-mer at ``codes[start:]``.

    Returns -1 when the word contains a non-standard residue (ambiguity
    codes never enter the lookup table, matching BLAST).
    """
    index = 0
    for offset in range(word_size):
        code = codes[start + offset]
        if code >= STANDARD_AMINO_ACIDS:
            return -1
        index = index * STANDARD_AMINO_ACIDS + code
    return index


def _neighborhood(
    word: tuple[int, ...],
    matrix: ScoringMatrix,
    threshold: int,
) -> Iterator[tuple[int, ...]]:
    """Yield all standard-alphabet words scoring >= threshold vs ``word``.

    Branch-and-bound: positions are filled left to right and a partial
    word is pruned when even best-case completion cannot reach the
    threshold.
    """
    word_size = len(word)
    best_row_score = [
        max(matrix.score(word[pos], code) for code in range(STANDARD_AMINO_ACIDS))
        for pos in range(word_size)
    ]
    suffix_best = [0] * (word_size + 1)
    for pos in range(word_size - 1, -1, -1):
        suffix_best[pos] = suffix_best[pos + 1] + best_row_score[pos]

    candidate = [0] * word_size

    def extend(pos: int, score: int) -> Iterator[tuple[int, ...]]:
        if pos == word_size:
            yield tuple(candidate)
            return
        row = matrix.rows[word[pos]]
        for code in range(STANDARD_AMINO_ACIDS):
            partial = score + row[code]
            if partial + suffix_best[pos + 1] < threshold:
                continue
            candidate[pos] = code
            yield from extend(pos + 1, partial)

    yield from extend(0, 0)


#: Global neighborhood memo: (matrix name, threshold, word) -> base-20
#: neighbor indices.  A word's neighborhood depends only on the matrix
#: and threshold — never on the query — so distinct queries sharing
#: vocabulary (every real protein) reuse each other's expansions.  This
#: is the table-driven setup real BLAST ships precomputed; here it
#: amortizes engine compilation across a serving workload's queries.
_NEIGHBOR_MEMO: dict[tuple, dict[int, tuple[int, ...]]] = {}
_NEIGHBOR_MEMO_CAP = 200_000


def _neighbor_table(
    matrix: ScoringMatrix, threshold: int, word_size: int
) -> dict[int, tuple[int, ...]]:
    """The (matrix, threshold, word size) neighbor table, int-keyed.

    Maps each word's base-20 index to its neighbors' indices.  Filled
    lazily per word (or all at once by
    :func:`precompute_neighborhoods`); keeping one dict per parameter
    set means the query-compile hot loop pays a single integer-keyed
    lookup per word instead of hashing nested tuples.
    """
    key = (matrix.name, threshold, word_size)
    table = _NEIGHBOR_MEMO.get(key)
    if table is None:
        table = _NEIGHBOR_MEMO[key] = {}
    return table


def neighborhood_indices(
    word: tuple[int, ...], matrix: ScoringMatrix, threshold: int
) -> tuple[int, ...]:
    """Memoized base-20 indices of every neighbor of ``word``."""
    table = _neighbor_table(matrix, threshold, len(word))
    index = 0
    for code in word:
        index = index * STANDARD_AMINO_ACIDS + code
    indices = table.get(index)
    if indices is None:
        if len(table) >= _NEIGHBOR_MEMO_CAP:
            table.clear()
        result = []
        for neighbor in _neighborhood(word, matrix, threshold):
            value = 0
            for code in neighbor:
                value = value * STANDARD_AMINO_ACIDS + code
            result.append(value)
        indices = table[index] = tuple(result)
    return indices


def precompute_neighborhoods(
    matrix: ScoringMatrix = BLOSUM62,
    threshold: int = DEFAULT_THRESHOLD,
    word_size: int = DEFAULT_WORD_SIZE,
) -> int:
    """Expand every possible word's neighborhood into the memo.

    Real BLAST ships its neighbor table precomputed; this is the
    equivalent warm-up, run once per worker process by the serving
    layer so query compilation degrades to memo lookups.  Returns the
    number of table entries (for logging/telemetry).
    """
    entries = 0
    words: list[tuple[int, ...]] = [()]
    for _ in range(word_size):
        words = [
            word + (code,)
            for word in words
            for code in range(STANDARD_AMINO_ACIDS)
        ]
    for word in words:
        entries += len(neighborhood_indices(word, matrix, threshold))
    return entries


@dataclass(frozen=True)
class WordHit:
    """A two-hit-qualified seed: query/subject offsets of the second hit."""

    query_offset: int
    subject_offset: int

    @property
    def diagonal(self) -> int:
        """Diagonal index (subject offset - query offset)."""
        return self.subject_offset - self.query_offset


class LookupTable:
    """Query neighborhood-word lookup table.

    ``table[word_index]`` is a tuple of query offsets whose neighborhood
    contains that word.  The table spans the full ``20**w`` index space
    (a flat list, like BLAST's presence-bit + cell array), which is the
    large, sparsely-hit structure behind BLAST's cache misses.
    """

    def __init__(
        self,
        query_codes,
        matrix: ScoringMatrix = BLOSUM62,
        word_size: int = DEFAULT_WORD_SIZE,
        threshold: int = DEFAULT_THRESHOLD,
    ) -> None:
        if word_size < 1:
            raise ValueError("word size must be positive")
        self.word_size = word_size
        self.threshold = threshold
        size = STANDARD_AMINO_ACIDS**word_size
        cells: list[list[int] | None] = [None] * size
        occupied: list[int] = []
        entry_count = 0
        table = _neighbor_table(matrix, threshold, word_size)
        for position in range(len(query_codes) - word_size + 1):
            query_index = word_index(query_codes, position, word_size)
            if query_index < 0:
                continue
            neighbors = table.get(query_index)
            if neighbors is None:
                word = tuple(query_codes[position : position + word_size])
                neighbors = neighborhood_indices(word, matrix, threshold)
            entry_count += len(neighbors)
            for index in neighbors:
                bucket = cells[index]
                if bucket is None:
                    cells[index] = [position]
                    occupied.append(index)
                else:
                    bucket.append(position)
        # Buckets stay lists: the scan paths only ever iterate them,
        # and skipping ~one tuple() per occupied cell keeps query
        # compilation cheap on the serving hot path.
        self._cells: list[list[int] | None] = cells
        #: Word indices with at least one entry (batched-scan fast path).
        self.occupied: tuple[int, ...] = tuple(occupied)
        self.entry_count = entry_count

    def __len__(self) -> int:
        return len(self._cells)

    def lookup(self, index: int) -> "tuple[int, ...] | list[int]":
        """Query offsets registered for a word index (empty if none)."""
        if index < 0:
            return ()
        bucket = self._cells[index]
        return bucket if bucket is not None else ()


class DiagonalTracker:
    """Incremental two-hit state for one query over one subject.

    ``feed(index, subject_offset)`` consumes one subject word position
    and returns the qualified seeds it fires.  Positions must arrive in
    ascending ``subject_offset`` order; the tracker then reproduces
    :meth:`TwoHitScanner.scan` exactly, which is what lets a *batched*
    scanner compute ``word_index`` once per subject position and feed
    every query's tracker from the shared value.
    """

    def __init__(
        self,
        lookup: LookupTable,
        query_length: int,
        subject_length: int,
        window: int = DEFAULT_WINDOW,
    ) -> None:
        self.lookup = lookup
        self.window = window
        self.single_hits = 0
        # Diagonal d = subject_offset - query_offset ranges over
        # [-(qlen-1), n-1]; bias to index a flat last-hit array.
        self.bias = query_length - 1
        self._last_hit = [-(10**9)] * (self.bias + max(subject_length, 1))

    def feed(self, index: int, subject_offset: int) -> list[WordHit]:
        """Process one subject word position; returns fired seeds."""
        bucket = self.lookup.lookup(index)
        if not bucket:
            return []
        return self.feed_bucket(bucket, subject_offset)

    def feed_bucket(
        self, bucket: "tuple[int, ...] | list[int]", subject_offset: int
    ) -> list[WordHit]:
        """Process one position's already-looked-up bucket of offsets.

        The batched scanner resolves the shared word index against a
        combined table once and hands each engine its own bucket here;
        the state transitions are exactly those of :meth:`feed`.
        """
        hits: list[WordHit] = []
        word_size = self.lookup.word_size
        window = self.window
        last_hit = self._last_hit
        bias = self.bias
        self.single_hits += len(bucket)
        for query_offset in bucket:
            diagonal = subject_offset - query_offset + bias
            previous = last_hit[diagonal]
            distance = subject_offset - previous
            if word_size <= distance <= window:
                last_hit[diagonal] = subject_offset
                hits.append(WordHit(query_offset, subject_offset))
            elif distance > window or distance < 0:
                last_hit[diagonal] = subject_offset
        return hits


class TwoHitScanner:
    """Per-subject two-hit diagonal scan.

    ``scan`` yields qualified seeds; ``self.single_hits`` counts raw
    word hits so callers can report selectivity statistics.
    """

    def __init__(
        self,
        lookup: LookupTable,
        query_length: int,
        window: int = DEFAULT_WINDOW,
    ) -> None:
        self.lookup = lookup
        self.query_length = query_length
        self.window = window
        self.single_hits = 0

    def scan(self, subject_codes) -> Iterator[WordHit]:
        """Yield two-hit seeds for one subject sequence."""
        word_size = self.lookup.word_size
        n = len(subject_codes)
        if n < word_size:
            return
        base_hits = self.single_hits
        tracker = DiagonalTracker(
            self.lookup, self.query_length, n, window=self.window
        )
        for subject_offset in range(n - word_size + 1):
            index = word_index(subject_codes, subject_offset, word_size)
            yield from tracker.feed(index, subject_offset)
            self.single_hits = base_hits + tracker.single_hits
