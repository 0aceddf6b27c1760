"""Smith-Waterman local alignment (Gotoh affine-gap formulation).

Two entry points matter here:

* :func:`smith_waterman` — the textbook dynamic program with full
  traceback, used as the ground-truth reference in tests and examples.
* :func:`sw_score_swat` — the SWAT-optimized score-only row kernel that
  SSEARCH actually runs (paper listing 2): it keeps one H/E struct array
  over the query and *skips work* whenever both the running score and the
  gap score are non-positive.  Those data-dependent skips are exactly the
  ``if-then-else`` jungle the paper blames for SSEARCH's branch
  mispredictions; the traced SSEARCH kernel mirrors this code path
  instruction for instruction.

Score convention: a gap of length ``k`` costs ``open + extend * k``
(``GapPenalties``); local alignment scores are clamped at zero.
"""

from __future__ import annotations

from repro.align.types import AlignmentResult, GapPenalties, PAPER_GAPS
from repro.bio.matrices import BLOSUM62, ScoringMatrix
from repro.bio.sequence import Sequence, as_sequence

_NEG_INF = -(10**9)


def sw_score(
    query: Sequence | str,
    subject: Sequence | str,
    matrix: ScoringMatrix = BLOSUM62,
    gaps: GapPenalties = PAPER_GAPS,
) -> int:
    """Score-only Smith-Waterman with affine gaps (straightforward rows).

    This is the clean O(m*n) time / O(m) space formulation without the
    SWAT control-flow optimizations; it defines the correct score that
    all other implementations must reproduce.
    """
    return sw_score_codes(
        as_sequence(query).codes, as_sequence(subject).codes, matrix, gaps
    )


def sw_score_codes(
    q: tuple[int, ...],
    s: tuple[int, ...],
    matrix: ScoringMatrix = BLOSUM62,
    gaps: GapPenalties = PAPER_GAPS,
) -> int:
    """:func:`sw_score` over residue-code tuples."""
    if not q or not s:
        return 0
    gap_first = gaps.first_residue_cost
    gap_extend = gaps.extend
    rows = matrix.rows

    m = len(q)
    h_row = [0] * (m + 1)
    e_row = [_NEG_INF] * (m + 1)
    best = 0
    for b_code in s:
        score_row = rows[b_code]
        diag = 0
        f = _NEG_INF
        for i in range(1, m + 1):
            e = max(h_row[i] - gap_first, e_row[i] - gap_extend)
            f = max(h_row[i - 1] - gap_first, f - gap_extend)
            h = diag + score_row[q[i - 1]]
            if e > h:
                h = e
            if f > h:
                h = f
            if h < 0:
                h = 0
            diag = h_row[i]
            h_row[i] = h
            e_row[i] = e
            if h > best:
                best = h
    return best


def sw_score_swat(
    query: Sequence | str,
    subject: Sequence | str,
    matrix: ScoringMatrix = BLOSUM62,
    gaps: GapPenalties = PAPER_GAPS,
) -> int:
    """SWAT-style score-only kernel with computation avoidance.

    Mirrors the SSEARCH34 inner loop (paper listing 2): per query
    position it keeps ``H``/``E`` state, and when the incoming score
    ``h`` and gap score ``e`` are both non-positive it takes a short
    path that writes zero and moves on.  On typical (unrelated) database
    sequences most cells take the short path, which is why SSEARCH beats
    a naive implementation — at the price of data-dependent branches.
    """
    q = as_sequence(query).codes
    s = as_sequence(subject).codes
    if not q or not s:
        return 0
    gap_first = gaps.first_residue_cost
    gap_extend = gaps.extend
    rows = matrix.rows

    m = len(q)
    h_state = [0] * m
    e_state = [0] * m
    best = 0
    for b_code in s:
        score_row = rows[b_code]
        h = 0          # H value flowing along the diagonal.
        f = 0          # Running gap-in-subject score.
        for i in range(m):
            h += score_row[q[i]]
            prev_h = h_state[i]
            e = e_state[i]
            if h < 0:
                h = 0
            if f > h:
                h = f
            if e > h:
                h = e
            # Update vertical/horizontal gap scores only when they can
            # still contribute (the computation-avoidance fast path).
            threshold = h - gap_first
            f -= gap_extend
            if threshold > f:
                f = threshold
            e -= gap_extend
            if threshold > e:
                e = threshold
            if e < 0:
                e = 0
            e_state[i] = e
            h_state[i] = h
            if h > best:
                best = h
            h = prev_h
    return best


def smith_waterman(
    query: Sequence | str,
    subject: Sequence | str,
    matrix: ScoringMatrix = BLOSUM62,
    gaps: GapPenalties = PAPER_GAPS,
) -> AlignmentResult:
    """Full Smith-Waterman with traceback.

    Returns the best-scoring local alignment; ties are broken toward the
    smallest end coordinates and then toward diagonal moves, which makes
    the output deterministic.
    """
    query_seq = as_sequence(query, identifier="query")
    subject_seq = as_sequence(subject, identifier="subject")
    q = query_seq.codes
    s = subject_seq.codes
    m, n = len(q), len(s)
    if m == 0 or n == 0:
        return AlignmentResult(0, 0, 0, 0, 0)

    gap_first = gaps.first_residue_cost
    gap_extend = gaps.extend
    rows = matrix.rows

    # Full matrices: H plus traceback moves for H, E, F.
    h_matrix = [[0] * (n + 1) for _ in range(m + 1)]
    e_matrix = [[_NEG_INF] * (n + 1) for _ in range(m + 1)]
    f_matrix = [[_NEG_INF] * (n + 1) for _ in range(m + 1)]

    best = 0
    best_pos = (0, 0)
    for i in range(1, m + 1):
        score_row = rows[q[i - 1]]
        for j in range(1, n + 1):
            e = max(h_matrix[i][j - 1] - gap_first, e_matrix[i][j - 1] - gap_extend)
            f = max(h_matrix[i - 1][j] - gap_first, f_matrix[i - 1][j] - gap_extend)
            diag = h_matrix[i - 1][j - 1] + score_row[s[j - 1]]
            h = max(0, diag, e, f)
            h_matrix[i][j] = h
            e_matrix[i][j] = e
            f_matrix[i][j] = f
            if h > best:
                best = h
                best_pos = (i, j)

    if best == 0:
        return AlignmentResult(0, 0, 0, 0, 0)

    # Traceback from the best cell, preferring diagonal moves.
    aligned_q: list[str] = []
    aligned_s: list[str] = []
    i, j = best_pos
    state = "H"
    while i > 0 and j > 0:
        if state == "H":
            h = h_matrix[i][j]
            if h == 0:
                break
            diag = h_matrix[i - 1][j - 1] + rows[q[i - 1]][s[j - 1]]
            if h == diag:
                aligned_q.append(query_seq.text[i - 1])
                aligned_s.append(subject_seq.text[j - 1])
                i -= 1
                j -= 1
            elif h == e_matrix[i][j]:
                state = "E"
            else:
                state = "F"
        elif state == "E":
            # Gap in the query: consume a subject residue.
            aligned_q.append("-")
            aligned_s.append(subject_seq.text[j - 1])
            came_from_open = (
                e_matrix[i][j] == h_matrix[i][j - 1] - gap_first
            )
            j -= 1
            state = "H" if came_from_open else "E"
        else:
            # Gap in the subject: consume a query residue.
            aligned_q.append(query_seq.text[i - 1])
            aligned_s.append("-")
            came_from_open = (
                f_matrix[i][j] == h_matrix[i - 1][j] - gap_first
            )
            i -= 1
            state = "H" if came_from_open else "F"

    aligned_q.reverse()
    aligned_s.reverse()
    return AlignmentResult(
        score=best,
        query_start=i,
        query_end=best_pos[0],
        subject_start=j,
        subject_end=best_pos[1],
        aligned_query="".join(aligned_q),
        aligned_subject="".join(aligned_s),
    )
