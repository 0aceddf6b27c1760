"""Property-based hardening: traced kernels vs reference engines.

The central invariant — traced kernels compute the same scores as the
engines — is exercised on randomized small databases (varying lengths,
divergences, and seeds) beyond the fixed fixtures used elsewhere.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.align.blast.engine import BlastEngine, BlastOptions
from repro.align.fasta.engine import FastaEngine, FastaOptions
from repro.align.smith_waterman import sw_score
from repro.bio.database import SequenceDatabase
from repro.bio.sequence import Sequence
from repro.bio.synthetic import MutationModel, random_protein
from repro.kernels.blast_kernel import BlastKernel
from repro.kernels.fasta_kernel import FastaKernel
from repro.kernels.ssearch_kernel import SsearchKernel
from repro.kernels.sw_vmx_kernel import SwVmxKernel


def build_inputs(seed: int):
    """A query plus a 3-subject database with one planted relative."""
    rng = random.Random(seed)
    query = Sequence("query", random_protein(rng.randint(24, 90), rng))
    model = MutationModel(substitution_rate=0.3, indel_rate=0.03)
    subjects = [
        Sequence("REL", model.mutate(query.text, rng)),
        Sequence("RND1", random_protein(rng.randint(20, 150), rng)),
        Sequence("RND2", random_protein(rng.randint(20, 150), rng)),
    ]
    return query, SequenceDatabase(subjects, name=f"fuzz-{seed}")


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_ssearch_kernel_matches_sw(seed):
    query, database = build_inputs(seed)
    run = SsearchKernel().run(query, database, record=False)
    for sid, score in run.scores.items():
        assert score == sw_score(query, database.get(sid))


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_vmx_kernels_match_sw(seed):
    query, database = build_inputs(seed)
    for width_bits in (128, 256):
        run = SwVmxKernel(width_bits).run(query, database, record=False)
        for sid, score in run.scores.items():
            assert score == sw_score(query, database.get(sid)), width_bits

@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    threshold=st.sampled_from((9, 11, 13)),
)
def test_blast_kernel_matches_engine(seed, threshold):
    query, database = build_inputs(seed)
    options = BlastOptions(threshold=threshold)
    run = BlastKernel(options).run(query, database, record=False)
    engine = BlastEngine(query, options)
    for sid, score in run.scores.items():
        assert score == engine.score_subject(database.get(sid))


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    opt_threshold=st.sampled_from((12, 20, 28)),
)
def test_fasta_kernel_matches_engine(seed, opt_threshold):
    query, database = build_inputs(seed)
    options = FastaOptions(opt_threshold=opt_threshold)
    run = FastaKernel(options).run(query, database, record=False)
    engine = FastaEngine(query, options)
    for sid, score in run.scores.items():
        assert score == engine.score_subject(database.get(sid)).reported


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_truncated_traces_stay_wellformed(seed):
    query, database = build_inputs(seed)
    for kernel in (SsearchKernel(), FastaKernel(), BlastKernel()):
        run = kernel.run(query, database, record=True, limit=2500)
        run.trace.validate()
        assert run.instruction_count <= 2501
