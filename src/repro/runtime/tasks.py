"""Task payloads and their worker-side execution functions.

A task is ``(kind, payload)`` where ``kind`` names an entry in
:data:`TASK_KINDS` and ``payload`` is a picklable tuple.  Workers look
the function up by kind, so nothing but plain data crosses the process
boundary; the same functions run unchanged in-process when the executor
degrades (or was never parallel to begin with).

Kinds
-----
``simulate``
    ``(trace_ref, configs, track_occupancy)`` — one trace under one or
    more processor configurations.  ``trace_ref`` is either a
    :class:`~repro.isa.trace.Trace` (in-process executors) or the path
    of a spilled ``.trace.npz`` (pool workers); the trace is loaded and
    decoded once, then each configuration runs through
    :func:`repro.uarch.simulator.simulate`.  Returns the list of
    :class:`~repro.uarch.results.SimulationResult` in config order.
``sweep``
    ``(trace_ref, configs, track_occupancy, cache_root, digests)`` —
    sweep grid points over one trace: the ``simulate`` body, after
    which every point's result is stored into the content-addressed
    cache at ``cache_root`` under its own digest *from the worker*,
    before the list of results returns.  The worker-side store is what
    makes sweeps resumable even when the orchestrating process dies
    mid-batch: every finished point is durable the moment its task
    ends, and the re-run finds it as a cache hit.
``trace``
    ``(name, budget, database_config, query, cache_root)`` — runs the
    instrumented kernel, stores the trace into the content-addressed
    cache at ``cache_root``, and returns a summary dict (mix counts,
    scores, truncation, subjects, trace content digest).  The trace
    itself travels through the cache file, not the result queue.
``search_shard``
    ``(params_key, queries, database_config, shard_index, shard_count)``
    — scans one deterministic shard of the database for a *batch* of
    queries (``queries`` is a tuple of ``(id, residues)`` pairs) and
    returns ``{"scans": [ShardScan dict, ...]}`` in query order.
    ``database_config`` is either a generator config (the worker
    materializes and memoizes the database) or a
    :class:`~repro.store.packdb.PackedDatabaseRef` (the worker mmaps
    the shared snapshot).
``precompute_words``
    ``(threshold, word_size)`` — expands every possible BLAST word's
    neighborhood into the worker's memo (the moral equivalent of
    BLAST's shipped neighbor tables).  The serving layer dispatches
    one per worker at startup so later query compiles are memo
    lookups.
``selftest``
    Tiny deterministic operations used by the executor's test suite and
    fault-injection scenarios.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path

from repro.isa.serialize import load_trace
from repro.isa.trace import Trace
from repro.uarch.simulator import simulate


@dataclass(frozen=True)
class Task:
    """One unit of work for an executor."""

    kind: str
    payload: tuple
    label: str = ""


def execute_simulate(payload: tuple) -> list:
    trace_ref, configs, track_occupancy = payload
    trace = trace_ref if isinstance(trace_ref, Trace) else load_trace(trace_ref)
    return [
        simulate(trace, config, track_occupancy=track_occupancy)
        for config in configs
    ]


def execute_sweep(payload: tuple) -> list:
    from repro.runtime.cache import ResultCache

    trace_ref, configs, track_occupancy, cache_root, digests = payload
    results = execute_simulate((trace_ref, configs, track_occupancy))
    cache = ResultCache(cache_root)
    for digest, result in zip(digests, results):
        cache.store_result(digest, result)
    return results


def execute_trace(payload: tuple) -> dict:
    from repro.bio.synthetic import generate_database
    from repro.kernels.registry import create_kernel
    from repro.runtime.cache import ResultCache
    from repro.runtime.keys import trace_digest

    name, budget, database_config, query, cache_root = payload
    database = generate_database(database_config)
    kernel = create_kernel(name)
    run = kernel.run(query, database, record=True, limit=budget)
    assert run.trace is not None
    content_digest = trace_digest(run.trace)
    ResultCache(cache_root).store_trace(content_digest, run.trace)
    return {
        "kernel_name": run.kernel_name,
        "mix_counts": list(run.mix.counts),
        "scores": dict(run.scores),
        "truncated": run.truncated,
        "subjects_processed": run.subjects_processed,
        "trace_digest": content_digest,
    }


#: Worker-side memo of generated databases, keyed by config identity.
#: Synthetic generation is deterministic, so equality of the config
#: repr implies equality of the database.  Small cap: a serving worker
#: sees one or two database configs, never an unbounded stream.
_database_memo: dict[str, object] = {}
_DATABASE_MEMO_CAP = 4

#: Worker-side memo of compiled query engines, keyed by
#: (params_key, query_text).  Engine compilation (BLAST neighbourhood
#: expansion in particular) dominates short-query scan time, so reuse
#: across requests is what makes batched serving fast.
_engine_memo: dict[tuple, object] = {}
_ENGINE_MEMO_CAP = 128


def _memo_database(database_config):
    from repro.bio.synthetic import generate_database
    from repro.store.packdb import PackedDatabaseRef, open_packed

    key = repr(database_config)
    database = _database_memo.get(key)
    if database is None:
        if len(_database_memo) >= _DATABASE_MEMO_CAP:
            _database_memo.clear()
        if isinstance(database_config, PackedDatabaseRef):
            # An mmap open, not a materialization: the worker shares
            # the snapshot's page-cache pages with every other process
            # scanning it.
            database = open_packed(database_config.path)
        else:
            database = generate_database(database_config)
        _database_memo[key] = database
    return database


def _memo_engine(params, params_key: tuple, query_id: str, query_text: str):
    from repro.align.batch import make_engine, make_query

    key = (params_key, query_text)
    engine = _engine_memo.get(key)
    if engine is None:
        if len(_engine_memo) >= _ENGINE_MEMO_CAP:
            _engine_memo.clear()
        engine = make_engine(params, make_query(query_id, query_text))
        _engine_memo[key] = engine
    return engine


def execute_search_shard(payload: tuple) -> dict:
    from repro.align.batch import SearchParams, scan_shard

    params_key, queries, database_config, shard_index, shard_count = payload
    params = SearchParams.from_key(params_key)
    database = _memo_database(database_config)
    engines = [
        _memo_engine(params, tuple(params_key), query_id, query_text)
        for query_id, query_text in queries
    ]
    scans = scan_shard(params, engines, database, shard_index, shard_count)
    return {"scans": [scan.to_dict() for scan in scans]}


def execute_precompute_words(payload: tuple) -> dict:
    from repro.align.blast.wordfinder import precompute_neighborhoods

    threshold, word_size = payload
    start = time.perf_counter()
    entries = precompute_neighborhoods(
        threshold=threshold, word_size=word_size
    )
    return {
        "entries": entries,
        "seconds": time.perf_counter() - start,
    }


def execute_selftest(payload: tuple):
    operation, *arguments = payload
    if operation == "square":
        return arguments[0] * arguments[0]
    if operation == "raise":
        raise RuntimeError("selftest failure")
    if operation == "sleep":
        # Fault-injection scaffolding: it runs in a pool worker, and
        # serve never submits selftest tasks, so this sleep cannot
        # reach an event loop.
        time.sleep(arguments[0])  # repolint: disable=REP011
        return "slept"
    if operation == "exit_once":
        # Dies the first time only: the marker file survives the crash,
        # so the retry succeeds.  Used to simulate a killed worker.
        marker = Path(arguments[0])
        if not marker.exists():
            marker.touch()
            os._exit(42)
        return "recovered"
    if operation == "sleep_once":
        # Hangs the first time only (simulates a stuck worker); the
        # retry returns promptly.
        marker = Path(arguments[0])
        if not marker.exists():
            marker.touch()
            # Same scaffolding-only reasoning as the "sleep" operation.
            time.sleep(arguments[1])  # repolint: disable=REP011
        return "recovered"
    raise ValueError(f"unknown selftest operation {operation!r}")


TASK_KINDS = {
    "simulate": execute_simulate,
    "sweep": execute_sweep,
    "trace": execute_trace,
    "search_shard": execute_search_shard,
    "precompute_words": execute_precompute_words,
    "selftest": execute_selftest,
}


def run_task(kind: str, payload: tuple):
    """Execute one task in the calling process."""
    try:
        function = TASK_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown task kind {kind!r}") from None
    return function(payload)
