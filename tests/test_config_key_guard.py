"""Guard: the structural config key must cover every configuration knob.

A field added to any configuration dataclass but forgotten in
``runtime.keys.config_key`` would silently alias cache entries (two
different machines sharing one cached result).  The mutation tables and
both guard predicates live in :mod:`repro.verify.guards`; this module
is the thin tier-1 caller that turns each gap into a named assertion
failure.
"""

from __future__ import annotations

import pytest

from repro.verify.guards import (
    GUARDED_CONFIGS,
    NESTED_CONFIGS,
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
    names = {cls.__name__ for cls in GUARDED_CONFIGS} | {
        cls.__name__ for cls in NESTED_CONFIGS
    }
    assert names == {
        "ProcessorConfig",
        "MemoryConfig",
        "BranchPredictorConfig",
        "CacheConfig",
        "TlbConfig",
    }


def test_blind_spot_reporting_names_the_field():
    """A key that ignores a knob is reported as ``Class.field``."""
    from dataclasses import replace

    from repro.verify import guards

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
