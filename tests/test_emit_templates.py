"""Scalar vs templated emission equivalence, plus stamp-oracle fuzzing.

The block-templated fast path (``TraceBuilder.stamp``) promises
*byte-identical* traces to per-call scalar emission.  This module holds
that promise to account two ways:

* every golden kernel is run under both ``emit_mode``
  settings and the content digests, instruction counts, scores, and
  truncation behaviour must match exactly;
* randomized templates are stamped through the vectorized
  ``stamp_columns`` path and through the per-instruction interpreter
  (``_stamp_interpreted``, the documented oracle), and the resulting
  traces must be digest-identical.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.builder import EMIT_MODES, TraceBuilder
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

GOLDEN = list(WORKLOAD_NAMES)

DATA_BASE = 0x1000_0000


@pytest.fixture(scope="module")
def mode_runs(query, tiny_database):
    """Every golden kernel, untruncated, in both emission modes."""
    return {
        name: {
            mode: create_kernel(name).run(
                query, tiny_database, emit_mode=mode
            )
            for mode in EMIT_MODES
        }
        for name in GOLDEN
    }


class TestGoldenEquivalence:
    @pytest.mark.parametrize("name", GOLDEN)
    def test_digests_byte_identical(self, mode_runs, name):
        runs = mode_runs[name]
        digests = {
            mode: compute_trace_digest(run.trace)
            for mode, run in runs.items()
        }
        assert digests["templated"] == digests["scalar"]

    @pytest.mark.parametrize("name", GOLDEN)
    def test_counts_and_scores_identical(self, mode_runs, name):
        templated, scalar = (
            mode_runs[name]["templated"], mode_runs[name]["scalar"]
        )
        assert templated.mix.counts == scalar.mix.counts
        assert templated.instruction_count == scalar.instruction_count
        assert templated.scores == scalar.scores
        assert templated.truncated == scalar.truncated

    @pytest.mark.parametrize("name", GOLDEN)
    def test_budget_truncation_identical(self, query, tiny_database, name):
        runs = {
            mode: create_kernel(name).run(
                query, tiny_database, limit=1500, emit_mode=mode
            )
            for mode in EMIT_MODES
        }
        assert runs["templated"].truncated and runs["scalar"].truncated
        assert compute_trace_digest(runs["templated"].trace) == \
            compute_trace_digest(runs["scalar"].trace)
        # The over-budget instruction is counted but not materialized.
        assert runs["templated"].instruction_count == 1501
        assert len(runs["templated"].trace) == 1500

    @pytest.mark.parametrize("name", GOLDEN)
    def test_count_only_mode_identical(self, mode_runs, query,
                                       tiny_database, name):
        counted = create_kernel(name).run(
            query, tiny_database, record=False, emit_mode="templated"
        )
        assert counted.mix.counts == mode_runs[name]["scalar"].mix.counts

    def test_templated_traces_pass_lint(self, mode_runs):
        trace = mode_runs["ssearch34"]["templated"].trace
        assert trace.stamped_regions
        report = lint_trace(trace, include_roundtrip=False)
        assert report.ok, report.render() if hasattr(report, "render") \
            else report

    def test_scalar_traces_carry_no_regions(self, mode_runs):
        assert mode_runs["ssearch34"]["scalar"].trace.stamped_regions == ()


class TestEmissionModeSelection:
    def test_default_is_templated(self):
        builder = TraceBuilder("t")
        assert builder.emit_mode == "templated"
        assert builder.use_templates

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            TraceBuilder("t", emit_mode="fancy")

    def test_explicit_mode_selects_path(self):
        assert not TraceBuilder("t", emit_mode="scalar").use_templates
        assert TraceBuilder("t", emit_mode="templated").use_templates


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
