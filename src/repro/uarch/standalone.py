"""Fast standalone trace analyses: cache-only and predictor-only runs.

Figure 5/6's miss-rate curves and Figure 11's prediction-rate curves do
not need the full pipeline — only the memory reference stream or the
branch outcome stream.  These helpers replay just that stream straight
from the trace's decode plane (no per-instruction objects), which is
one to two orders of magnitude faster than the cycle-level model, so
wide parameter sweeps stay cheap.
"""

from __future__ import annotations

from repro.isa.trace import Trace
from repro.uarch.caches import MemoryHierarchy
from repro.uarch.config import MemoryConfig
from repro.uarch.branch.predictors import DirectionPredictor, create_predictor
from repro.uarch.pipeline.decode import decode_trace
from repro.uarch.results import BranchResult, CacheResult


def run_cache_only(trace: Trace, memory: MemoryConfig) -> tuple[CacheResult, CacheResult]:
    """Replay the data reference stream; returns (DL1, L2) statistics."""
    return run_cache_only_batch(trace, [memory])[0]


def run_cache_only_batch(
    trace: Trace, memories: list[MemoryConfig]
) -> list[tuple[CacheResult, CacheResult]]:
    """Replay the data reference stream under many memory configurations.

    The batch form for standalone analyses (the Figure 5/6
    parameter sweeps replay one trace under dozens of hierarchies):
    the memory-op index list is extracted from the decode plane once
    and every hierarchy replays against it, so per-configuration cost
    is the cache model alone.  Results are identical to calling
    :func:`run_cache_only` per configuration.
    """
    plane = decode_trace(trace)
    addresses = plane.address
    sizes = plane.size
    indices = [
        i for i, words in enumerate(plane.words) if words is not None
    ]
    results: list[tuple[CacheResult, CacheResult]] = []
    for memory in memories:
        hierarchy = MemoryHierarchy(memory)
        access_data = hierarchy.access_data
        for index in indices:
            access_data(addresses[index], sizes[index])
        results.append((
            CacheResult(hierarchy.dl1.accesses, hierarchy.dl1.misses),
            CacheResult(hierarchy.l2.accesses, hierarchy.l2.misses),
        ))
    return results


def run_predictor_only(
    trace: Trace, kind: str, entries: int
) -> tuple[BranchResult, DirectionPredictor]:
    """Replay the branch stream through one direction predictor."""
    return run_predictor_only_batch(trace, [(kind, entries)])[0]


def run_predictor_only_batch(
    trace: Trace, predictors: list[tuple[str, int]]
) -> list[tuple[BranchResult, DirectionPredictor]]:
    """Replay the branch stream through many direction predictors.

    ``predictors`` is a list of ``(kind, entries)`` pairs; the branch
    index list is shared across all of them (the Figure 11 study walks
    strategies x table sizes over one trace).  Results are identical
    to calling :func:`run_predictor_only` per pair.
    """
    plane = decode_trace(trace)
    pcs = plane.pc
    takens = plane.taken
    indices = [
        i for i, branch_op in enumerate(plane.is_branch) if branch_op
    ]
    results: list[tuple[BranchResult, DirectionPredictor]] = []
    for kind, entries in predictors:
        predictor = create_predictor(kind, entries)
        record = predictor.record
        predict_and_update = predictor.predict_and_update
        for index in indices:
            record(
                predict_and_update(pcs[index], takens[index]), takens[index]
            )
        results.append((
            BranchResult(
                predictions=predictor.predictions, correct=predictor.correct
            ),
            predictor,
        ))
    return results
