"""Pinned kernel emission, plus stamp-oracle fuzzing.

Kernels emit their instruction streams through block templates
(``TraceBuilder.stamp``).  This module holds that emission to account
two ways:

* every kernel in ``WORKLOAD_NAMES`` is run on the tiny database
  untruncated, under a 1500-instruction budget, and count-only, and its
  trace digest, length, instruction count, mix, scores and truncation
  must equal ``tests/golden/emission_golden.json``.  The pins were
  recorded where an independent per-call emitter still existed and
  produced the same values; a kernel edit is now checked against them;
* randomized templates are stamped through the vectorized
  ``stamp_columns`` path and through the per-instruction interpreter
  (``_stamp_interpreted``, the documented oracle), and the resulting
  traces must be digest-identical.

Do not regenerate the pin file to make a failure pass: a mismatch
means a kernel's emitted stream changed.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.builder import TraceBuilder
from repro.isa.emit import (
    INTERPRET_BELOW,
    Carry,
    EmitTemplate,
    Reg,
    Sel,
    Slot,
    SlotSpec,
)
from repro.isa.opcodes import OpClass
from repro.kernels.registry import WORKLOAD_NAMES, create_kernel
from repro.runtime.keys import compute_trace_digest
from repro.verify.tracelint import lint_trace

_PINS = json.loads(
    (Path(__file__).parent / "golden" / "emission_golden.json").read_text()
)

DATA_BASE = 0x1000_0000


def _summary(run) -> dict:
    """The pinned view of one kernel run (the pin file's entry shape)."""
    entry = {}
    if run.trace is not None:
        entry["digest"] = compute_trace_digest(run.trace)
        entry["length"] = len(run.trace)
    entry["instruction_count"] = run.instruction_count
    entry["mix"] = {op.name: run.mix.counts[op] for op in OpClass}
    entry["scores"] = dict(sorted(run.scores.items()))
    entry["truncated"] = run.truncated
    entry["subjects_processed"] = run.subjects_processed
    return entry


@pytest.fixture(scope="module")
def full_runs(query, tiny_database):
    """Every kernel, untruncated and recorded."""
    return {
        name: create_kernel(name).run(query, tiny_database)
        for name in WORKLOAD_NAMES
    }


_DIGEST_KEYS = ("digest", "length")


class TestGoldenEquivalence:
    """Each kernel's emission is identical to its pinned golden entry."""

    def test_pins_cover_every_workload(self, query):
        assert sorted(_PINS["runs"]) == sorted(WORKLOAD_NAMES)
        assert _PINS["query"] == query.identifier

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_counts_and_scores_identical(self, full_runs, name):
        summary = _summary(full_runs[name])
        pinned = _PINS["runs"][name]["untruncated"]
        assert {k: v for k, v in summary.items() if k not in _DIGEST_KEYS} \
            == {k: v for k, v in pinned.items() if k not in _DIGEST_KEYS}

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_digests_byte_identical(self, full_runs, name):
        summary = _summary(full_runs[name])
        pinned = _PINS["runs"][name]["untruncated"]
        for key in _DIGEST_KEYS:
            assert summary[key] == pinned[key], key

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_budget_truncation_identical(self, query, tiny_database, name):
        limit = _PINS["limit"]
        run = create_kernel(name).run(query, tiny_database, limit=limit)
        assert _summary(run) == _PINS["runs"][name][f"limit_{limit}"]
        # The over-budget instruction is counted but not materialized.
        assert run.truncated
        assert run.instruction_count == limit + 1
        assert len(run.trace) == limit

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_count_only_mode_identical(self, query, tiny_database, name):
        counted = create_kernel(name).run(query, tiny_database, record=False)
        assert counted.trace is None
        assert _summary(counted) == _PINS["runs"][name]["count_only"]
        assert _summary(counted)["mix"] == \
            _PINS["runs"][name]["untruncated"]["mix"]

    def test_templated_traces_pass_lint(self, full_runs):
        trace = full_runs["ssearch34"].trace
        assert trace.stamped_regions
        report = lint_trace(trace, include_roundtrip=False)
        assert report.ok, report.render() if hasattr(report, "render") \
            else report


# ----------------------------------------------------------------------
# Randomized template fuzzing: vectorized stamp vs interpreter oracle
# ----------------------------------------------------------------------

_ALU_OPS = (OpClass.IALU, OpClass.VSIMPLE)
_MEM_OPS = (OpClass.ILOAD, OpClass.ISTORE)


@st.composite
def stamp_cases(draw):
    """A random valid (template, n, operands) triple."""
    n = draw(st.integers(min_value=INTERPRET_BELOW, max_value=20))
    n_slots = draw(st.integers(min_value=2, max_value=5))
    operands: dict = {}

    def bool_array(prefix: str) -> str:
        name = f"{prefix}{len(operands)}"
        operands[name] = draw(
            st.lists(st.booleans(), min_size=n, max_size=n)
        )
        return name

    def int_array(prefix: str, low: int, high: int) -> str:
        name = f"{prefix}{len(operands)}"
        operands[name] = draw(
            st.lists(st.integers(low, high), min_size=n, max_size=n)
        )
        return name

    def scalar_reg() -> str:
        name = f"r{len(operands)}"
        operands[name] = draw(st.integers(0, 4096))
        return name

    specs = [SlotSpec(OpClass.IALU, "fz.anchor")]
    ungated_dest = [0]
    gated_dest: list[int] = []

    for position in range(1, n_slots):
        kind = draw(st.sampled_from(("alu", "alu", "mem", "ctrl")))
        gate = None
        if draw(st.booleans()):
            gate = bool_array("g")

        sources = []
        for _ in range(draw(st.integers(0, 2))):
            pick = draw(st.sampled_from(
                ("reg", "slot", "carry") + (("sel",) if gated_dest else ())
            ))
            if pick == "reg":
                sources.append(Reg(
                    int_array("v", 0, 4096) if draw(st.booleans())
                    else scalar_reg()
                ))
            elif pick == "slot":
                sources.append(Slot(draw(st.sampled_from(ungated_dest))))
            elif pick == "sel":
                sources.append(Sel(
                    draw(st.sampled_from(gated_dest)),
                    draw(st.sampled_from(ungated_dest)),
                ))
            else:
                target = draw(st.sampled_from(ungated_dest + gated_dest))
                sources.append(Carry(
                    target,
                    init=Reg(scalar_reg()),
                    lag=draw(st.integers(1, 2)),
                ))

        if kind == "mem":
            op = draw(st.sampled_from(_MEM_OPS))
            size = draw(st.sampled_from((1, 4, 8)))
            if draw(st.booleans()):
                spec = SlotSpec(
                    op, f"fz.s{position}", sources=tuple(sources),
                    gate=gate, size=size,
                    addr=int_array("a", DATA_BASE, DATA_BASE + (1 << 16)),
                )
            else:
                spec = SlotSpec(
                    op, f"fz.s{position}", sources=tuple(sources),
                    gate=gate, size=size, base=scalar_reg(),
                    scale=draw(st.sampled_from((0, 1, 8))),
                    offset=DATA_BASE + draw(st.integers(0, 64)),
                )
        elif kind == "ctrl":
            spec = SlotSpec(
                OpClass.CTRL, f"fz.s{position}", sources=tuple(sources),
                gate=gate,
                taken=(
                    bool_array("t") if draw(st.booleans())
                    else draw(st.booleans())
                ),
                backward=draw(st.booleans()),
            )
        else:
            spec = SlotSpec(
                draw(st.sampled_from(_ALU_OPS)), f"fz.s{position}",
                sources=tuple(sources), gate=gate,
            )
        specs.append(spec)
        if spec.has_dest:
            (gated_dest if gate else ungated_dest).append(position)

    return EmitTemplate("fz.block", specs), n, operands


class TestStampOracle:
    @settings(max_examples=40, deadline=None)
    @given(stamp_cases())
    def test_vectorized_matches_interpreter(self, case):
        template, n, operands = case
        vec = TraceBuilder("fuzz", record=True)
        vec_result = vec.stamp(template, n, operands)
        vec_trace = vec.build()

        oracle = TraceBuilder("fuzz", record=True)
        oracle_result = oracle._stamp_interpreted(template, n, operands)
        oracle_trace = oracle.build()

        assert compute_trace_digest(vec_trace) == \
            compute_trace_digest(oracle_trace)
        assert vec.counts == oracle.counts
        assert vec.total == oracle.total
        assert vec_result._last == oracle_result._last

        counted = TraceBuilder("fuzz", record=False)
        counted.stamp(template, n, operands)
        assert counted.counts == vec.counts
        assert counted.total == vec.total

    @settings(max_examples=20, deadline=None)
    @given(stamp_cases())
    def test_stamped_regions_satisfy_tr011(self, case):
        template, n, operands = case
        builder = TraceBuilder("fuzz", record=True)
        builder.stamp(template, n, operands)
        trace = builder.build()
        assert len(trace.stamped_regions) == 1
        report = lint_trace(
            trace, builder_invariants=False, include_roundtrip=False
        )
        tr011 = next(c for c in report.checks if c.rule == "TR011")
        assert not tr011.violations
