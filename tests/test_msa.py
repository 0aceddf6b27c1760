"""Tests for the star MSA extension (paper future work)."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.align.msa import MultipleAlignment, star_msa
from repro.align.needleman_wunsch import nw_score
from repro.bio.sequence import Sequence
from repro.bio.synthetic import MutationModel, random_protein

SRC = Path(__file__).resolve().parents[1] / "src"

proteins = st.text(alphabet="ARNDCQEGHILKMFPSTWYV", min_size=2, max_size=25)


def family(seed, count=4, length=50, rate=0.2):
    rng = random.Random(seed)
    base = random_protein(length, rng)
    model = MutationModel(substitution_rate=rate, indel_rate=0.03)
    return [Sequence(f"S{i}", model.mutate(base, rng)) for i in range(count)]


class TestStarMsa:
    def test_rows_strip_to_inputs(self):
        sequences = family(1)
        msa = star_msa(sequences)
        for sequence, row in zip(sequences, msa.rows):
            assert row.replace("-", "") == sequence.text

    def test_equal_row_lengths(self):
        msa = star_msa(family(2))
        assert len({len(row) for row in msa.rows}) == 1

    def test_identifiers_preserved_in_order(self):
        sequences = family(3)
        msa = star_msa(sequences)
        assert msa.identifiers == tuple(s.identifier for s in sequences)

    def test_two_sequences_equal_pairwise(self):
        sequences = family(4, count=2)
        msa = star_msa(sequences)
        pair_score = nw_score(sequences[0], sequences[1])
        assert msa.sum_of_pairs_score() == pair_score

    def test_needs_two_sequences(self):
        with pytest.raises(ValueError):
            star_msa([Sequence("A", "ACD")])

    def test_related_family_aligns_well(self):
        msa = star_msa(family(5, rate=0.1))
        identities = [
            msa.column_identity(i) for i in range(msa.column_count)
        ]
        mean_identity = sum(identities) / len(identities)
        assert mean_identity > 0.6

    def test_consensus_length(self):
        msa = star_msa(family(6))
        assert len(msa.consensus()) == msa.column_count

    def test_center_has_high_similarity(self):
        sequences = family(7)
        msa = star_msa(sequences)
        assert 0 <= msa.center_index < len(sequences)


class TestMultipleAlignmentType:
    def test_unequal_rows_rejected(self):
        with pytest.raises(ValueError):
            MultipleAlignment(("a", "b"), ("AC-", "AC"), 0)

    def test_identifier_count_checked(self):
        with pytest.raises(ValueError):
            MultipleAlignment(("a",), ("AC", "AC"), 0)

    def test_column_access(self):
        msa = MultipleAlignment(("a", "b"), ("AC-", "A-D"), 0)
        assert msa.column(0) == "AA"
        assert msa.column(1) == "C-"

    def test_consensus_ties_do_not_depend_on_hash_seed(self):
        """Every column ties 2:2; the answer must be the same per process."""
        script = (
            "from repro.align.msa import MultipleAlignment\n"
            "rows = ('ACDE', 'GHDE', 'ACKL', 'GHKL')\n"
            "print(MultipleAlignment(tuple('abcd'), rows, 0).consensus())\n"
        )
        answers = set()
        for seed in range(1, 9):
            environment = dict(
                os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(SRC)
            )
            completed = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=environment,
                check=True, timeout=60,
            )
            answers.add(completed.stdout.strip())
        # Ties go to the earliest row's residue.
        assert answers == {"ACDE"}

    def test_pretty_contains_ids(self):
        msa = MultipleAlignment(("seq1", "seq2"), ("ACD", "ACD"), 0)
        assert "seq1" in msa.pretty()


@settings(max_examples=25, deadline=None)
@given(a=proteins, b=proteins, c=proteins)
def test_msa_rows_always_strip_to_inputs(a, b, c):
    sequences = [Sequence("A", a), Sequence("B", b), Sequence("C", c)]
    msa = star_msa(sequences)
    for sequence, row in zip(sequences, msa.rows):
        assert row.replace("-", "") == sequence.text
    assert len({len(row) for row in msa.rows}) == 1


@settings(max_examples=20, deadline=None)
@given(a=proteins, b=proteins)
def test_two_sequence_msa_matches_pairwise_score(a, b):
    msa = star_msa([Sequence("A", a), Sequence("B", b)])
    assert msa.sum_of_pairs_score() == nw_score(a, b)


class TestMsaKernel:
    def test_scores_match_reference(self, tiny_database):
        from repro.kernels.msa_kernel import MsaKernel
        from repro.bio.queries import default_query

        center = default_query().subsequence(0, 80)
        run = MsaKernel().run(center, tiny_database, record=True)
        assert run.scores
        for sid, score in run.scores.items():
            assert score == nw_score(center, tiny_database.get(sid))
        run.trace.validate()

    def test_branchy_dp_character(self, tiny_database):
        from repro.kernels.msa_kernel import MsaKernel
        from repro.bio.queries import default_query

        center = default_query().subsequence(0, 80)
        run = MsaKernel().run(center, tiny_database, record=True,
                              limit=40_000)
        assert run.mix.control_fraction() > 0.12
        assert run.mix.load_fraction() > 0.15
