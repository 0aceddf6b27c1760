"""Deterministic synthetic protein data generation.

The paper searches the SwissProt database (62.6M residues, 172K
sequences) with 11 real query proteins.  Neither is redistributable here,
so this module builds a scaled synthetic stand-in:

* residues are drawn from the SwissProt background amino-acid
  composition, so scoring statistics (expected score per aligned pair,
  word-hit rates in BLAST/FASTA) match real searches;
* sequence lengths follow SwissProt's right-skewed length distribution;
* a configurable fraction of the database belongs to planted homolog
  *families* derived from common ancestors by substitution/indel
  mutation, so searches find genuinely related sequences (exercising the
  extension stages of BLAST/FASTA and the high-score paths of SW).

Everything is driven by :class:`random.Random` with explicit seeds, so a
given configuration always produces byte-identical databases.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.bio.alphabet import PROTEIN
from repro.bio.database import SequenceDatabase
from repro.bio.sequence import Sequence

#: SwissProt background amino-acid frequencies (release-era values), in
#: the PROTEIN alphabet order A R N D C Q E G H I L K M F P S T W Y V.
SWISSPROT_COMPOSITION: dict[str, float] = {
    "A": 0.0826, "R": 0.0553, "N": 0.0406, "D": 0.0546, "C": 0.0137,
    "Q": 0.0393, "E": 0.0674, "G": 0.0708, "H": 0.0227, "I": 0.0593,
    "L": 0.0965, "K": 0.0582, "M": 0.0241, "F": 0.0386, "P": 0.0472,
    "S": 0.0660, "T": 0.0535, "W": 0.0110, "Y": 0.0292, "V": 0.0687,
}

_RESIDUES = "".join(SWISSPROT_COMPOSITION)
_WEIGHTS = list(SWISSPROT_COMPOSITION.values())


def random_protein(length: int, rng: random.Random) -> str:
    """Draw a protein string with SwissProt background composition."""
    if length < 0:
        raise ValueError("length must be non-negative")
    return "".join(rng.choices(_RESIDUES, weights=_WEIGHTS, k=length))


def random_length(rng: random.Random, mean: float = 360.0, sigma: float = 0.55,
                  minimum: int = 40, maximum: int = 2000) -> int:
    """Draw a sequence length from a clamped log-normal distribution.

    Defaults approximate the SwissProt length distribution (mean ~360,
    heavy right tail).
    """
    mu = math.log(mean) - sigma * sigma / 2.0
    length = int(round(rng.lognormvariate(mu, sigma)))
    return max(minimum, min(maximum, length))


@dataclass(frozen=True)
class MutationModel:
    """Point-substitution + indel mutation process for homolog families.

    Parameters
    ----------
    substitution_rate:
        Per-residue probability of replacing the residue with a random
        background draw.
    indel_rate:
        Per-residue probability of starting an insertion or deletion.
    mean_indel_length:
        Geometric mean length of each indel event (gives the affine-gap
        structure the aligners are built for).
    """

    substitution_rate: float = 0.30
    indel_rate: float = 0.02
    mean_indel_length: float = 2.0

    def mutate(self, text: str, rng: random.Random) -> str:
        """Apply the mutation process to a residue string."""
        out: list[str] = []
        continue_prob = 1.0 - 1.0 / max(self.mean_indel_length, 1.0)
        i = 0
        n = len(text)
        while i < n:
            roll = rng.random()
            if roll < self.indel_rate / 2.0:
                # Deletion: skip a geometric-length run of residues.
                run = 1
                while rng.random() < continue_prob:
                    run += 1
                i += run
                continue
            if roll < self.indel_rate:
                # Insertion: emit a geometric-length run of random residues.
                run = 1
                while rng.random() < continue_prob:
                    run += 1
                out.append(random_protein(run, rng))
                # The current residue is handled on the next iteration.
                continue
            if rng.random() < self.substitution_rate:
                out.append(rng.choices(_RESIDUES, weights=_WEIGHTS, k=1)[0])
            else:
                out.append(text[i])
            i += 1
        return "".join(out)


@dataclass(frozen=True)
class SyntheticDatabaseConfig:
    """Configuration of a synthetic SwissProt-like database."""

    sequence_count: int = 200
    seed: int = 2006
    mean_length: float = 360.0
    family_count: int = 8
    family_size: int = 5
    mutation: MutationModel = MutationModel()
    name: str = "synthetic-swissprot"

    def __post_init__(self) -> None:
        if self.sequence_count < 0:
            raise ValueError("sequence_count must be non-negative")
        if self.family_count * self.family_size > self.sequence_count:
            raise ValueError("families cannot exceed the database size")


def generate_database(config: SyntheticDatabaseConfig) -> SequenceDatabase:
    """Generate a deterministic synthetic protein database.

    Family members are interleaved with unrelated sequences in a
    deterministic shuffle, mirroring how homologs are scattered through
    a real database scan.
    """
    rng = random.Random(config.seed)
    records: list[tuple[str, str, str]] = []

    for family_index in range(config.family_count):
        ancestor = random_protein(
            random_length(rng, mean=config.mean_length), rng
        )
        for member_index in range(config.family_size):
            text = config.mutation.mutate(ancestor, rng)
            records.append(
                (
                    f"FAM{family_index:03d}_{member_index:02d}",
                    text,
                    f"synthetic family {family_index} member {member_index}",
                )
            )

    unrelated = config.sequence_count - len(records)
    for index in range(unrelated):
        text = random_protein(random_length(rng, mean=config.mean_length), rng)
        records.append((f"RND{index:05d}", text, "synthetic background"))

    rng.shuffle(records)
    database = SequenceDatabase(name=config.name, alphabet=PROTEIN)
    for identifier, text, description in records:
        database.add(
            Sequence(identifier=identifier, text=text, description=description)
        )
    return database


def homolog_of(sequence: Sequence, seed: int,
               mutation: MutationModel = MutationModel()) -> Sequence:
    """Create a mutated homolog of ``sequence`` (used to plant true hits)."""
    rng = random.Random(seed)
    return Sequence(
        identifier=f"{sequence.identifier}_hom{seed}",
        text=mutation.mutate(sequence.text, rng),
        description=f"homolog of {sequence.identifier}",
        alphabet=sequence.alphabet,
    )
