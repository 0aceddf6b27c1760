"""Dynamic cache-key guards: every configuration knob must address the cache.

The guards prove that mutating any declared field of a configuration
dataclass actually *changes* ``runtime.keys.config_key`` — stronger
than any static check that the key builder merely reads the field, and
the one proof of cache-key completeness in the repo.  The guard logic
lives here, in one place; ``tests/test_config_key_guard.py`` is a thin
caller.

Each table maps ``field name -> mutation`` producing a valid,
structurally different configuration.  Coverage is by construction:
every ``@dataclass`` in :mod:`repro.uarch.config` needs a table, and
the nested tables are grafted through every ``MemoryConfig`` slot of
their type.  Adding a dataclass, a field, or a slot therefore fails
:func:`config_mutation_gaps` or :func:`config_key_blind_spots` until
the table (and the key builder) answer the "does this knob address the
cache?" question.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import replace

from repro.isa.opcodes import FunctionalUnit
from repro.runtime.keys import config_key
from repro.uarch import config as config_module
from repro.uarch.config import (
    ME1,
    PROC_4WAY,
    BranchPredictorConfig,
    CacheConfig,
    MemoryConfig,
    ProcessorConfig,
    TlbConfig,
)

BASE = PROC_4WAY.with_memory(ME1)


def _bump_units(config):
    units = dict(config.units)
    units[FunctionalUnit.FX] += 1
    return replace(config, units=units)


PROCESSOR_MUTATIONS = {
    "name": lambda c: replace(c, name=c.name + "-x"),
    "fetch_width": lambda c: replace(c, fetch_width=c.fetch_width + 1),
    "dispatch_width": lambda c: replace(
        c, dispatch_width=c.dispatch_width + 1
    ),
    "retire_width": lambda c: replace(c, retire_width=c.retire_width + 1),
    "inflight": lambda c: replace(c, inflight=c.inflight + 1),
    "gpr": lambda c: replace(c, gpr=c.gpr + 1),
    "vpr": lambda c: replace(c, vpr=c.vpr + 1),
    "fpr": lambda c: replace(c, fpr=c.fpr + 1),
    "units": _bump_units,
    "issue_queue_size": lambda c: replace(
        c, issue_queue_size=c.issue_queue_size + 1
    ),
    "ibuffer_size": lambda c: replace(c, ibuffer_size=c.ibuffer_size + 1),
    "retire_queue": lambda c: replace(c, retire_queue=c.retire_queue + 1),
    "dcache_read_ports": lambda c: replace(
        c, dcache_read_ports=c.dcache_read_ports + 1
    ),
    "dcache_write_ports": lambda c: replace(
        c, dcache_write_ports=c.dcache_write_ports + 1
    ),
    "max_outstanding_misses": lambda c: replace(
        c, max_outstanding_misses=c.max_outstanding_misses + 1
    ),
    "store_queue_size": lambda c: replace(
        c, store_queue_size=c.store_queue_size + 1
    ),
    "memory": lambda c: c.with_memory(
        replace(c.memory, memory_latency=c.memory.memory_latency + 1)
    ),
    "branch": lambda c: c.with_branch(
        replace(
            c.branch, mispredict_recovery=c.branch.mispredict_recovery + 1
        )
    ),
    "wide_load_extra_latency": lambda c: replace(
        c, wide_load_extra_latency=c.wide_load_extra_latency + 1
    ),
}

MEMORY_MUTATIONS = {
    "name": lambda m: replace(m, name=m.name + "-x"),
    "il1": lambda m: replace(m, il1=replace(m.il1, latency=m.il1.latency + 1)),
    "dl1": lambda m: replace(m, dl1=replace(m.dl1, latency=m.dl1.latency + 1)),
    "l2": lambda m: replace(m, l2=replace(m.l2, latency=m.l2.latency + 1)),
    "memory_latency": lambda m: replace(
        m, memory_latency=m.memory_latency + 1
    ),
    "itlb": lambda m: replace(
        m, itlb=replace(m.itlb, miss_penalty=m.itlb.miss_penalty + 1)
    ),
    "dtlb": lambda m: replace(
        m, dtlb=replace(m.dtlb, miss_penalty=m.dtlb.miss_penalty + 1)
    ),
    "sequential_prefetch": lambda m: replace(
        m, sequential_prefetch=not m.sequential_prefetch
    ),
}

CACHE_MUTATIONS = {
    "size_bytes": lambda c: replace(c, size_bytes=c.size_bytes * 2),
    "associativity": lambda c: replace(c, associativity=c.associativity * 2),
    "line_bytes": lambda c: replace(c, line_bytes=c.line_bytes // 2),
    "latency": lambda c: replace(c, latency=c.latency + 1),
}

TLB_MUTATIONS = {
    "entries": lambda t: replace(t, entries=t.entries * 2),
    "associativity": lambda t: replace(t, associativity=t.associativity * 2),
    "page_bytes": lambda t: replace(t, page_bytes=t.page_bytes * 2),
    "miss_penalty": lambda t: replace(t, miss_penalty=t.miss_penalty + 1),
}

BRANCH_MUTATIONS = {
    "kind": lambda b: replace(b, kind="gshare"),
    "table_entries": lambda b: replace(b, table_entries=b.table_entries * 2),
    "btb_entries": lambda b: replace(b, btb_entries=b.btb_entries * 2),
    "btb_associativity": lambda b: replace(
        b, btb_associativity=b.btb_associativity * 2
    ),
    "btb_miss_penalty": lambda b: replace(
        b, btb_miss_penalty=b.btb_miss_penalty + 1
    ),
    "max_predicted_branches": lambda b: replace(
        b, max_predicted_branches=b.max_predicted_branches + 1
    ),
    "mispredict_recovery": lambda b: replace(
        b, mispredict_recovery=b.mispredict_recovery + 1
    ),
}

#: dataclass -> (mutation table, how to graft a mutated value onto BASE).
GUARDED_CONFIGS = {
    ProcessorConfig: (PROCESSOR_MUTATIONS, lambda mutate: mutate(BASE)),
    MemoryConfig: (
        MEMORY_MUTATIONS,
        lambda mutate: BASE.with_memory(mutate(BASE.memory)),
    ),
    BranchPredictorConfig: (
        BRANCH_MUTATIONS,
        lambda mutate: BASE.with_branch(mutate(BASE.branch)),
    ),
}

#: Nested dataclasses, grafted through every ``MemoryConfig`` slot of
#: their type (:func:`nested_slots`).
NESTED_CONFIGS = {
    CacheConfig: CACHE_MUTATIONS,
    TlbConfig: TLB_MUTATIONS,
}


def config_dataclasses() -> list[type]:
    """Every ``@dataclass`` defined in :mod:`repro.uarch.config`."""
    return [
        value for value in vars(config_module).values()
        if isinstance(value, type)
        and dataclasses.is_dataclass(value)
        and value.__module__ == config_module.__name__
    ]


def nested_slots(cls: type) -> tuple[str, ...]:
    """The ``MemoryConfig`` fields typed ``cls`` (``il1``/``dl1``/...)."""
    hints = typing.get_type_hints(MemoryConfig)
    return tuple(
        field.name for field in dataclasses.fields(MemoryConfig)
        if hints[field.name] is cls
    )


def config_mutation_gaps() -> dict[str, set[str]]:
    """Dataclass fields with no mutation entry (should be empty).

    A config dataclass with no table at all reports every field.
    """
    gaps: dict[str, set[str]] = {}
    tables = {
        **{cls: mutations for cls, (mutations, _) in GUARDED_CONFIGS.items()},
        **NESTED_CONFIGS,
    }
    for cls in config_dataclasses():
        fields = {field.name for field in dataclasses.fields(cls)}
        difference = fields ^ set(tables.get(cls, {}))
        if difference:
            gaps[cls.__name__] = difference
    return gaps


def config_key_blind_spots() -> list[str]:
    """Mutations that fail to change the cache key (should be empty).

    Each entry names a ``Class.field`` whose mutation produced the same
    structural key as the base configuration — i.e. two different
    machines would alias one cache entry.
    """
    base_key = config_key(BASE)
    blind: list[str] = []
    for cls, (mutations, graft) in GUARDED_CONFIGS.items():
        for name, mutate in mutations.items():
            if config_key(graft(mutate)) == base_key:
                blind.append(f"{cls.__name__}.{name}")
    for cls, mutations in NESTED_CONFIGS.items():
        for slot in nested_slots(cls):
            for name, mutate in mutations.items():
                memory = replace(
                    BASE.memory,
                    **{slot: mutate(getattr(BASE.memory, slot))},
                )
                if config_key(BASE.with_memory(memory)) == base_key:
                    blind.append(f"{cls.__name__}.{name} (via {slot})")
    return blind
