"""FlowLint engine tests: fixtures per rule, graph construction, fuzz.

Each FL rule has a committed fixture package under
``tests/flow_fixtures/<rule>/repro`` shaped like a miniature of the
real repo (a ``runtime/tasks.py`` dispatch table, helpers a call or
two deep).  Every fixture proves three things: the rule fires
*interprocedurally* (the violation is at least one call below the
root), a ``flowlint: disable`` comment on the offending line
suppresses it, and clean code stays clean.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.verify import flow
from repro.verify.flow import TaintSpec

FIXTURES = Path(__file__).parent / "flow_fixtures"

PROCESSOR = "repro.uarch.config.ProcessorConfig"


def fixture_graph(name: str, spec: TaintSpec | None = None) -> flow.FlowGraph:
    return flow.build_graph(
        FIXTURES / name / "repro", spec=spec or TaintSpec()
    )


class TestFL003:
    def test_worker_write_fires_one_call_deep(self):
        graph = fixture_graph("fl003")
        violations = flow.lint_flow(graph=graph)
        assert [v.rule for v in violations] == ["FL003"]
        violation = violations[0]
        assert violation.path == "repro/sim/mutate.py"
        assert "repro.config.presets.PRESETS" in violation.message
        # Interprocedural: task body -> scrub -> _reset.
        assert len(violation.chain) == 3
        assert violation.chain[-1].endswith("_reset")

    def test_owner_module_write_exempt(self):
        # register() writes PRESETS from its own module: no finding.
        graph = fixture_graph("fl003")
        raw = flow.lint_flow(graph=graph, honor_suppressions=False)
        assert not any(v.path == "repro/config/presets.py" for v in raw)

    def test_suppressed_write_filtered(self):
        # PRESETS.clear() is a mutator-method write; it fires raw.
        graph = fixture_graph("fl003")
        raw = flow.lint_flow(graph=graph, honor_suppressions=False)
        assert len(raw) == 2
        assert len(flow.lint_flow(graph=graph)) == 1


class TestFL004:
    def test_blocking_call_one_helper_deep(self):
        graph = fixture_graph("fl004")
        violations = flow.lint_flow(graph=graph)
        assert [v.rule for v in violations] == ["FL004"] * 3
        violation = next(
            v for v in violations
            if v.path == "repro/serve/sync_ops.py"
        )
        assert "time.sleep" in violation.message
        assert "handle" in violation.message  # names the coroutine
        assert violation.chain[0].endswith("handle")
        assert violation.chain[-1].endswith("respond")

    def test_cluster_coroutines_are_roots(self):
        """Regression: repro.cluster coroutines count as serve roots."""
        graph = fixture_graph("fl004")
        violations = flow.lint_flow(graph=graph)
        violation = next(
            v for v in violations
            if v.path == "repro/cluster/backoff.py"
        )
        assert "time.sleep" in violation.message
        assert "dispatch" in violation.message
        assert violation.chain[0].endswith("dispatch")
        assert violation.chain[-1].endswith("backoff")

    def test_prefix_opt_out_narrows_roots(self):
        # A caller passing the classic single prefix sees only the
        # serve-side finding — the cluster coroutine is not a root.
        graph = fixture_graph("fl004")
        narrowed = flow.fl004(graph, serve_prefix="repro.serve")
        assert {v.path for v in narrowed} == {
            "repro/serve/sync_ops.py"
        }

    def test_awaited_asyncio_sleep_clean(self):
        graph = fixture_graph("fl004")
        raw = flow.lint_flow(graph=graph, honor_suppressions=False)
        assert not any("tick" in v.chain[0] for v in raw)
        assert not any("probe" in v.chain[0] for v in raw)

    def test_untimed_sync_get_in_coroutine_flagged(self):
        graph = fixture_graph("fl004")
        violations = flow.lint_flow(graph=graph)
        [violation] = [
            v for v in violations if v.path == "repro/cluster/pump.py"
        ]
        assert "timeout" in violation.message
        # Written in the coroutine itself: the chain is just the root.
        assert violation.chain == ("repro.cluster.pump.pump",)

    def test_awaited_get_and_timed_get_are_legal(self):
        graph = fixture_graph("fl004")
        raw = flow.lint_flow(graph=graph, honor_suppressions=False)
        assert not any(v.chain[0].endswith("pump_safely") for v in raw)

    def test_uncalled_sync_function_is_silent(self):
        # warmup() sleeps and calls an untimed .get(), but no coroutine
        # calls it, so it cannot stall the event loop.
        graph = fixture_graph("fl004")
        raw = flow.lint_flow(graph=graph, honor_suppressions=False)
        assert not any(v.chain[-1].endswith("warmup") for v in raw)


class TestFL005:
    def test_unsalted_env_read_fires(self):
        graph = fixture_graph("fl005")
        [violation] = flow.lint_flow(graph=graph)
        assert violation.rule == "FL005"
        assert violation.path == "repro/env/scale.py"
        assert "REPRO_SECRET" in violation.message
        assert len(violation.chain) == 2
        assert violation.chain[-1].endswith("secret_mode")

    def test_salted_env_read_clean(self):
        graph = fixture_graph("fl005")
        raw = flow.lint_flow(graph=graph, honor_suppressions=False)
        assert not any("REPRO_SCALE" in v.message for v in raw)

    def test_suppressed_read_filtered(self):
        graph = fixture_graph("fl005")
        raw = flow.lint_flow(graph=graph, honor_suppressions=False)
        assert len(raw) == 2
        assert len(flow.lint_flow(graph=graph)) == 1


class TestOverrideEdges:
    def test_base_method_reaches_subclass_override(self):
        # Kernel.run -> self.execute must reach the subclass override,
        # not stop at the abstract base method.
        graph = fixture_graph("override")
        callees = graph.callees("repro.kernels.base.Kernel.run")
        assert "repro.kernels.clock.ClockKernel.execute" in callees
        assert "repro.kernels.clock.Unrelated.execute" not in callees

    def test_unrelated_class_is_not_an_override(self):
        graph = fixture_graph("override")
        reached = flow.reachable(graph, flow.default_task_roots(graph))
        assert "repro.kernels.clock.Unrelated.execute" not in reached


@pytest.fixture(scope="module")
def repo_graph() -> flow.FlowGraph:
    return flow.build_graph()


class TestRealGraph:
    """Call-graph construction pinned against hand-written edge sets."""

    def test_table_dispatch_edges(self, repo_graph):
        # run_task resolves TASK_KINDS[kind](payload) to every entry.
        callees = repo_graph.callees("repro.runtime.tasks.run_task")
        expected = {
            f"repro.runtime.tasks.execute_{kind}"
            for kind in (
                "simulate", "sweep", "trace", "search_shard",
                "precompute_words", "selftest",
            )
        }
        assert set(callees) == expected

    def test_exact_edge_set_execute_simulate(self, repo_graph):
        callees = repo_graph.callees(
            "repro.runtime.tasks.execute_simulate"
        )
        assert callees == [
            "repro.isa.serialize.load_trace",
            "repro.uarch.simulator.simulate",
        ]

    def test_lazy_import_and_reexport_resolution(self, repo_graph):
        # The lint-trace command imports lint_trace *inside* the
        # function body, and the name re-exports through
        # repro.verify's __init__.
        callees = set(repo_graph.callees(
            "repro.__main__._lint_trace_command"
        ))
        assert "repro.verify.tracelint.lint_trace" in callees
        assert "repro.isa.serialize.load_trace" in callees

    def test_trace_task_reaches_every_kernel_execute(self, repo_graph):
        from repro.kernels.registry import WORKLOAD_NAMES, create_kernel

        reached = flow.reachable(
            repo_graph, ["repro.runtime.tasks.execute_trace"]
        )
        for name in WORKLOAD_NAMES:
            kernel = type(create_kernel(name))
            execute = f"{kernel.__module__}.{kernel.__qualname__}.execute"
            assert execute in reached, name

    def test_repo_is_flow_clean(self, repo_graph):
        assert flow.lint_flow(graph=repo_graph) == []

    def test_check_flow_clean_and_memoized(self, repo_graph):
        flow.check_flow()
        flow.check_flow()  # second call is a digest-memo hit

    def test_flowlint_error_formats_violations(self):
        graph = fixture_graph("fl003")
        violations = flow.lint_flow(graph=graph)
        error = flow.FlowLintError(violations)
        assert "FL003" in str(error)
        assert "mutate.py" in str(error)


class TestStaleSuppressions:
    def test_dead_disable_flagged_live_one_kept(self):
        stale = flow.stale_suppressions(FIXTURES / "stale" / "repro")
        assert len(stale) == 1
        finding = stale[0]
        assert finding.path == "repro/runtime/tasks.py"
        assert "REP001" in finding.message
        # The live FL005 disable (suppressing a real reachable
        # finding) is not reported.
        assert not any("FL005" in v.message for v in stale)

    def test_docstring_examples_are_not_suppressions(self):
        from repro.verify.repolint import suppression_maps

        source = (
            '"""Docs show `# repolint: disable=REP001` usage."""\n'
            "import time\n"
            "def f():\n"
            "    return time.time()  # repolint: disable=REP001\n"
        )
        per_line, whole_file = suppression_maps(source)
        assert per_line == {4: {"REP001"}}
        assert whole_file == set()


# ----------------------------------------------------------------------
# Fuzz: graph construction never crashes on syntactically valid modules
# ----------------------------------------------------------------------

_NAMES = st.sampled_from(
    ["alpha", "beta", "config", "trace", "run", "helper", "value"]
)

_SNIPPETS = [
    "import time",
    "import numpy as np",
    "from repro.other import {a}",
    "from dataclasses import replace",
    "GLOBAL_TABLE = {{'one': {a}, 'two': {b}}}",
    "def {a}({b}):\n    return {b}",
    "def {a}(config):\n    return config.width + config.depth",
    "def {a}(trace):\n    trace.cols = ()\n    trace.rows.append(1)",
    "def {a}():\n    return time.time()",
    "async def {a}():\n    import asyncio\n    await asyncio.sleep(0)",
    "def {a}(x):\n    y = GLOBAL_TABLE[x]\n    return y(x)",
    "def {a}(x):\n    return GLOBAL_TABLE[x](x)",
    "def {a}(pool, x):\n    return pool.map({b}, x)",
    "def {a}(x):\n    for item in {{1, 2, 3}}:\n        x += item\n"
    "    return x",
    "def {a}(x):\n    return sorted({{'z', 'y'}})",
    "class {A}:\n    def __init__(self, config):\n"
    "        self.config = config\n"
    "    def go(self):\n        return self.config.width",
    "class {A}:\n    def run(self):\n        return self",
    "def {a}():\n    import os\n    return os.environ.get('X')",
    "def {a}(x):\n    global COUNT\n    COUNT = x",
    "def {a}(x):\n    def inner(config):\n        return config.depth\n"
    "    return inner(x)",
    "def {a}(x):\n    if (y := x):\n        return y\n    return None",
    "def {a}(*args, **kwargs):\n    first, *rest = args\n    return rest",
    "def {a}(x):\n    try:\n        return x.get()\n"
    "    except Exception:\n        return None",
    "def {a}(x):\n    with open(x) as stream:\n        return stream.read()",
]


@st.composite
def module_sources(draw):
    count = draw(st.integers(min_value=1, max_value=6))
    parts = []
    for _ in range(count):
        template = draw(st.sampled_from(_SNIPPETS))
        a = draw(_NAMES)
        b = draw(_NAMES)
        parts.append(template.format(a=a, b=b, A=a.capitalize()))
    return "\n\n".join(parts)


class TestFuzz:
    @settings(max_examples=60, deadline=None)
    @given(source=module_sources())
    def test_scan_and_link_never_crash(self, source):
        ast.parse(source)  # the strategy only emits valid modules
        spec = TaintSpec(
            config_fields={PROCESSOR: {"width": None, "depth": None}},
            name_seeds={
                "config": PROCESSOR,
                "trace": "repro.isa.trace.Trace",
            },
        )
        facts = flow.scan_module(
            source, "repro/fuzzed.py", "repro.fuzzed", spec=spec
        )
        graph = flow._link(
            [facts], Path("src"), "repro", "fuzz-digest"
        )
        for rule in flow.FLOW_RULE_IMPLS.values():
            rule(graph)
