"""Guard: the structural config key must cover every configuration knob.

A field added to any configuration dataclass but forgotten in
``runtime.keys.config_key`` would silently alias cache entries (two
different machines sharing one cached result).  The mutation tables and
both guard predicates live in :mod:`repro.verify.guards`; this module
is the thin tier-1 caller that turns each gap into a named assertion
failure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import pytest

from repro.uarch import config as config_module
from repro.uarch.config import CacheConfig, MemoryConfig
from repro.verify import guards
from repro.verify.guards import (
    GUARDED_CONFIGS,
    NESTED_CONFIGS,
    config_dataclasses,
    config_key_blind_spots,
    config_mutation_gaps,
)


def test_every_config_field_has_a_mutation():
    assert config_mutation_gaps() == {}, (
        "a config dataclass and its mutation table disagree; decide "
        "whether the new/removed knob addresses the cache, then update "
        "repro.verify.guards and runtime.keys.config_key together"
    )


def test_every_mutation_changes_the_key():
    assert config_key_blind_spots() == [], (
        "these knobs are not part of config_key: different "
        "configurations would alias one cache entry"
    )


def test_guard_tables_cover_all_config_dataclasses():
    guarded = set(GUARDED_CONFIGS) | set(NESTED_CONFIGS)
    assert guarded == set(config_dataclasses())


def test_unguarded_config_dataclass_is_a_gap():
    """A new config dataclass without a mutation table is reported."""

    @dataclass(frozen=True)
    class PrefetcherConfig:
        degree: int = 1
        distance: int = 4

    PrefetcherConfig.__module__ = config_module.__name__
    with pytest.MonkeyPatch.context() as patcher:
        patcher.setattr(
            config_module, "PrefetcherConfig", PrefetcherConfig,
            raising=False,
        )
        assert config_mutation_gaps() == {
            "PrefetcherConfig": {"degree", "distance"}
        }


@dataclass(frozen=True)
class _MemoryWithL3(MemoryConfig):
    l3: CacheConfig = CacheConfig(8 * 1024 * 1024, 16, 128, 30)


def test_ignored_field_behind_a_derived_slot_is_a_blind_spot():
    """A new ``l3`` slot that ``config_key`` never reads is reported
    for every cache knob, with no hand-kept slot list to update."""
    memory = _MemoryWithL3(**{
        field: getattr(guards.BASE.memory, field)
        for field in guards.BASE.memory.__dataclass_fields__
    })
    with pytest.MonkeyPatch.context() as patcher:
        patcher.setattr(guards, "MemoryConfig", _MemoryWithL3)
        patcher.setattr(guards, "BASE", guards.BASE.with_memory(memory))
        assert guards.nested_slots(CacheConfig) == (
            "il1", "dl1", "l2", "l3",
        )
        assert config_key_blind_spots() == [
            f"CacheConfig.{name} (via l3)"
            for name in guards.CACHE_MUTATIONS
        ]


def test_blind_spot_reporting_names_the_field():
    """A key that ignores a knob is reported as ``Class.field``."""
    broken = dict(GUARDED_CONFIGS)
    broken[guards.ProcessorConfig] = (
        {"fetch_width": lambda c: replace(c, fetch_width=c.fetch_width)},
        lambda mutate: mutate(guards.BASE),
    )
    with pytest.MonkeyPatch.context() as patcher:
        patcher.setattr(guards, "GUARDED_CONFIGS", broken)
        patcher.setattr(guards, "NESTED_CONFIGS", {})
        assert guards.config_key_blind_spots() == [
            "ProcessorConfig.fetch_width"
        ]
