"""Progressive (star) multiple sequence alignment.

The paper's future work names "multiple sequences analysis" as the next
workload to characterize.  This module implements the classic star
alignment: pick the center sequence with the highest total pairwise
similarity, align every other sequence to it globally (Gotoh affine
gaps), and merge the pairwise alignments under the "once a gap, always
a gap" rule.  The result is the textbook 2-approximation of the
sum-of-pairs optimal alignment and the pairwise stage is exactly the
DP workload the paper's SSEARCH analysis covers —
:mod:`repro.kernels.msa_kernel` characterizes it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.align.needleman_wunsch import needleman_wunsch, nw_score
from repro.align.types import GapPenalties, PAPER_GAPS
from repro.bio.matrices import BLOSUM62, ScoringMatrix
from repro.bio.sequence import Sequence


@dataclass(frozen=True)
class MultipleAlignment:
    """An MSA: one gapped row per input sequence (equal lengths)."""

    identifiers: tuple[str, ...]
    rows: tuple[str, ...]
    center_index: int

    def __post_init__(self) -> None:
        lengths = {len(row) for row in self.rows}
        if len(lengths) > 1:
            raise ValueError("alignment rows must have equal length")
        if len(self.identifiers) != len(self.rows):
            raise ValueError("one identifier per row required")

    @property
    def sequence_count(self) -> int:
        """Number of aligned sequences."""
        return len(self.rows)

    @property
    def column_count(self) -> int:
        """Number of alignment columns."""
        return len(self.rows[0]) if self.rows else 0

    def column(self, index: int) -> str:
        """The residues (and gaps) of one column."""
        return "".join(row[index] for row in self.rows)

    def consensus(self) -> str:
        """Majority residue per column (``-`` only if gaps dominate).

        Ties go to the residue of the earliest row, so the answer never
        depends on string hashing (``PYTHONHASHSEED``).
        """
        out = []
        for index in range(self.column_count):
            # Counter keeps first-seen (row) order; max() keeps the
            # first of equal keys.
            counts = Counter(self.column(index))
            out.append(max(counts, key=lambda c: (counts[c], c != "-")))
        return "".join(out)

    def column_identity(self, index: int) -> float:
        """Fraction of rows agreeing with the column's majority residue."""
        column = self.column(index).replace("-", "")
        if not column:
            return 0.0
        most = max(column.count(c) for c in set(column))
        return most / self.sequence_count

    def sum_of_pairs_score(
        self,
        matrix: ScoringMatrix = BLOSUM62,
        gaps: GapPenalties = PAPER_GAPS,
    ) -> int:
        """Sum of all pairwise alignment scores induced by the MSA.

        Gap runs are charged affinely per pairwise projection; columns
        where both rows have gaps are skipped (standard SP scoring).
        """
        total = 0
        for first in range(self.sequence_count):
            for second in range(first + 1, self.sequence_count):
                total += _pairwise_projection_score(
                    self.rows[first], self.rows[second], matrix, gaps
                )
        return total

    def pretty(self, width: int = 60) -> str:
        """Render the alignment in blocks with identifiers."""
        label_width = max(len(name) for name in self.identifiers)
        lines = []
        for start in range(0, self.column_count, width):
            for name, row in zip(self.identifiers, self.rows):
                lines.append(f"{name:<{label_width}}  {row[start:start + width]}")
            lines.append("")
        return "\n".join(lines).rstrip()


def _pairwise_projection_score(
    row_a: str, row_b: str, matrix: ScoringMatrix, gaps: GapPenalties
) -> int:
    score = 0
    gap_run = 0
    for a, b in zip(row_a, row_b):
        if a == "-" and b == "-":
            continue
        if a == "-" or b == "-":
            gap_run += 1
            continue
        if gap_run:
            score -= gaps.cost(gap_run)
            gap_run = 0
        score += matrix.score_symbols(a, b)
    if gap_run:
        score -= gaps.cost(gap_run)
    return score


def _merge(msa_rows: list[str], center_aligned: str, other_aligned: str) -> None:
    """Merge one pairwise alignment into the growing MSA.

    ``msa_rows[0]`` is the current (gapped) center row; every existing
    row is padded where the new pairwise alignment inserts gaps into
    the center ("once a gap, always a gap"), and the newly aligned
    sequence is appended as the last row.
    """
    old_center = msa_rows[0]
    merged = [""] * len(msa_rows)
    new_row = ""
    i = 0  # position in old_center
    j = 0  # position in center_aligned
    while i < len(old_center) or j < len(center_aligned):
        old_char = old_center[i] if i < len(old_center) else None
        new_char = center_aligned[j] if j < len(center_aligned) else None
        if (
            old_char is not None
            and new_char is not None
            and (old_char == "-") == (new_char == "-")
        ):
            # Columns agree (both residue or both gap): copy through.
            for row_index, row in enumerate(msa_rows):
                merged[row_index] += row[i]
            new_row += other_aligned[j]
            i += 1
            j += 1
        elif old_char == "-":
            # A gap column from an earlier merge: pad the new sequence.
            for row_index, row in enumerate(msa_rows):
                merged[row_index] += row[i]
            new_row += "-"
            i += 1
        else:
            # The new pairwise alignment gaps the center here: pad the
            # whole existing MSA.
            for row_index in range(len(msa_rows)):
                merged[row_index] += "-"
            new_row += other_aligned[j]
            j += 1
    msa_rows[:] = merged
    msa_rows.append(new_row)


def star_msa(
    sequences: list[Sequence],
    matrix: ScoringMatrix = BLOSUM62,
    gaps: GapPenalties = PAPER_GAPS,
) -> MultipleAlignment:
    """Star-alignment MSA of two or more sequences."""
    if len(sequences) < 2:
        raise ValueError("an MSA needs at least two sequences")

    # Center: highest total global similarity to all others.
    totals = []
    for candidate in sequences:
        total = sum(
            nw_score(candidate, other, matrix=matrix, gaps=gaps)
            for other in sequences
            if other is not candidate
        )
        totals.append(total)
    center_index = max(range(len(sequences)), key=totals.__getitem__)
    center = sequences[center_index]

    msa_rows: list[str] = [center.text]
    merge_order: list[int] = [center_index]
    for index, sequence in enumerate(sequences):
        if index == center_index:
            continue
        pairwise = needleman_wunsch(center, sequence, matrix=matrix, gaps=gaps)
        _merge(msa_rows, pairwise.aligned_query, pairwise.aligned_subject)
        merge_order.append(index)

    rows_by_index = {
        index: msa_rows[position] for position, index in enumerate(merge_order)
    }
    ordered_rows = tuple(rows_by_index[i] for i in range(len(sequences)))
    return MultipleAlignment(
        identifiers=tuple(s.identifier for s in sequences),
        rows=ordered_rows,
        center_index=center_index,
    )
