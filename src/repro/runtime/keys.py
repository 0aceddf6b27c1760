"""Cache-key construction for the experiment runtime.

Every artifact in the persistent result cache is addressed by a digest
of everything that can change its content:

* the **structural configuration key** (every knob of
  :class:`~repro.uarch.config.ProcessorConfig` and its nested memory /
  branch dataclasses — this is the same key the in-process memo in
  :mod:`repro.analysis.context` uses);
* the **trace content digest** (hash of the exact columnar bytes the
  on-disk format stores) or, for trace-generation tasks, the workload
  spec (name, budget, database configuration, query residues);
* the global ``REPRO_SCALE`` factor;
* a **code-version salt**: a hash over every ``repro`` source file, so
  any change to the simulator, kernels, or inputs invalidates the whole
  cache rather than silently serving stale results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import weakref
from pathlib import Path

from repro.isa.trace import Trace
from repro.uarch.config import ProcessorConfig
from repro.workloads.suite import scale_factor


def config_key(config: ProcessorConfig) -> tuple:
    """Structural identity of everything that can change a simulation."""
    memory = config.memory
    branch = config.branch

    def cache_key(cache) -> tuple:
        return (cache.size_bytes, cache.associativity, cache.line_bytes,
                cache.latency)

    def tlb_key(tlb) -> tuple:
        return (tlb.entries, tlb.associativity, tlb.page_bytes,
                tlb.miss_penalty)

    return (
        config.name,
        config.fetch_width,
        config.dispatch_width,
        config.retire_width,
        config.inflight,
        config.gpr,
        config.vpr,
        config.fpr,
        tuple(sorted((fu.value, count) for fu, count in config.units.items())),
        config.issue_queue_size,
        config.ibuffer_size,
        config.retire_queue,
        config.dcache_read_ports,
        config.dcache_write_ports,
        config.max_outstanding_misses,
        config.store_queue_size,
        config.wide_load_extra_latency,
        memory.name,
        cache_key(memory.il1),
        cache_key(memory.dl1),
        cache_key(memory.l2),
        memory.memory_latency,
        tlb_key(memory.itlb),
        tlb_key(memory.dtlb),
        memory.sequential_prefetch,
        branch.kind,
        branch.table_entries,
        branch.btb_entries,
        branch.btb_associativity,
        branch.btb_miss_penalty,
        branch.max_predicted_branches,
        branch.mispredict_recovery,
    )


_code_salt: str | None = None


def code_salt() -> str:
    """Digest of every ``repro`` source file (memoized per process)."""
    global _code_salt
    if _code_salt is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.blake2b(digest_size=16)
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(path.read_bytes())
        _code_salt = digest.hexdigest()
    return _code_salt


#: id(trace) -> (weak reference to the trace, digest).  The reference
#: tells a live entry from a dead trace whose id was reused, and its
#: callback drops the entry, so the memo never keeps a trace (or its
#: decode plane) alive.
_trace_digests: dict[int, tuple[weakref.ref, str]] = {}


def compute_trace_digest(trace: Trace) -> str:
    """Content hash of a trace (name + exact on-disk column bytes).

    Pure recomputation, no memo — this is the single definition of
    trace content identity, shared by the cache keys and by
    :mod:`repro.verify`'s digest-recomputation check.
    """
    from repro.isa.serialize import trace_columns

    digest = hashlib.blake2b(digest_size=16)
    digest.update(trace.name.encode())
    columns = trace_columns(trace)
    for column in sorted(columns):
        array = columns[column]
        digest.update(column.encode())
        digest.update(str(array.dtype).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def trace_digest(trace: Trace) -> str:
    """Memoized :func:`compute_trace_digest` (keyed on trace identity)."""
    key = id(trace)
    memo = _trace_digests.get(key)
    if memo is not None and memo[0]() is trace:
        return memo[1]
    value = compute_trace_digest(trace)
    _trace_digests[key] = (
        weakref.ref(trace, lambda _: _trace_digests.pop(key, None)),
        value,
    )
    return value


def _hash_material(material: tuple) -> str:
    return hashlib.blake2b(repr(material).encode(), digest_size=16).hexdigest()


def simulate_key(
    trace: Trace, config: ProcessorConfig, track_occupancy: bool = False
) -> str:
    """Cache address of one ``simulate(trace, config)`` task's result."""
    return _hash_material((
        "simulate",
        code_salt(),
        trace_digest(trace),
        config_key(config),
        bool(track_occupancy),
        scale_factor(),
    ))


def database_cache_key(database_config) -> object:
    """Digest material for a database configuration.

    A generator config contributes its ``dataclasses.astuple`` (as
    always).  A :class:`~repro.store.packdb.PackedDatabaseRef`
    contributes the *source key* its header pinned at pack time — the
    very same astuple, JSON round-tripped — so a packed snapshot of
    config C hashes identically to C itself and the two paths share
    every cache entry byte-for-byte.
    """
    from repro.store.packdb import PackedDatabaseRef, packed_source_key

    if isinstance(database_config, PackedDatabaseRef):
        return packed_source_key(database_config)
    return dataclasses.astuple(database_config)


def trace_task_key(name: str, budget: int, database_config, query) -> str:
    """Cache address of one ``trace(workload)`` task's result."""
    return _hash_material((
        "trace",
        code_salt(),
        name,
        int(budget),
        database_cache_key(database_config),
        query.identifier,
        query.text,
        scale_factor(),
    ))


def search_shard_key(
    params_key: tuple,
    query_text: str,
    database_config,
    shard_index: int,
    shard_count: int,
) -> str:
    """Cache address of one per-query ``search_shard`` scan.

    Keyed on the query *residues* (not its identifier): a shard scan's
    raw scores depend only on the sequence content, the search params,
    and the shard geometry, so renamed queries still hit.
    """
    return _hash_material((
        "search-shard",
        code_salt(),
        tuple(params_key),
        query_text,
        database_cache_key(database_config),
        int(shard_index),
        int(shard_count),
    ))
