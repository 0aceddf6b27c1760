"""RepoLint: rule units on synthetic sources, suppression, repo gate.

``TestRepoGate`` is the tier-1 gate: the shipped package must be clean
under every REP rule, so any regression (a new wall-clock read in
library code, a column mutation outside repro.isa, a swallowed except
in the runtime) fails the suite.
"""

from __future__ import annotations

import ast
import textwrap

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.verify import lint_paths, lint_source, stale_suppressions
from repro.verify.repolint import suppression_comments, suppression_maps

LIB = "repro/analysis/synthetic_module.py"
RUNTIME = "repro/runtime/synthetic_module.py"
SERVE = "repro/serve/synthetic_module.py"
CLUSTER = "repro/cluster/synthetic_module.py"


def rules_of(violations) -> list[str]:
    return [violation.rule for violation in violations]


def lint(source: str, relative: str = LIB, rules: set[str] | None = None):
    return lint_source(textwrap.dedent(source), relative, rules=rules)


class TestRep001Nondeterminism:
    def test_wall_clock_and_global_random_flagged(self):
        violations = lint(
            """
            import random
            import time

            def jitter():
                return random.random() + time.time()
            """
        )
        assert rules_of(violations) == ["REP001", "REP001"]
        messages = " ".join(violation.message for violation in violations)
        assert "random.random" in messages
        assert "time.time" in messages

    def test_seeded_rng_and_duration_timers_are_legal(self):
        assert lint(
            """
            import random
            import time
            from numpy.random import default_rng

            def sample(seed):
                rng = random.Random(seed)
                generator = default_rng(seed)
                start = time.perf_counter()
                return rng.random(), generator.random(), start
            """
        ) == []

    def test_unseeded_generators_flagged(self):
        violations = lint(
            """
            import random
            import numpy as np
            from numpy.random import default_rng

            def entropy():
                return random.Random(), np.random.rand(), default_rng()
            """
        )
        assert rules_of(violations) == ["REP001"] * 3

    def test_uuid_and_secrets_flagged(self):
        violations = lint(
            """
            import os
            import secrets
            import uuid

            def token():
                return uuid.uuid4(), secrets.token_hex(), os.urandom(8)
            """
        )
        assert rules_of(violations) == ["REP001"] * 3

    def test_cli_and_bench_modules_exempt(self):
        source = """
        import time

        def stamp():
            return time.time()
        """
        assert lint(source, "repro/__main__.py") == []
        assert lint(source, "repro/bench.py") == []
        assert rules_of(lint(source, LIB)) == ["REP001"]

    def test_set_iteration_in_hash_order_flagged(self):
        violations = lint(
            """
            def names(table):
                for name in {"a", "b"}:
                    table.append(name)
                return [x for x in set(table)]
            """
        )
        assert rules_of(violations) == ["REP001", "REP001"]
        assert "PYTHONHASHSEED" in violations[0].message

    def test_iteration_over_a_local_set_flagged(self):
        violations = lint(
            """
            def names(table):
                seen = set(table)
                for name in seen:
                    table.append(name)
                return [x for x in seen]
            """
        )
        assert rules_of(violations) == ["REP001", "REP001"]
        assert [violation.line for violation in violations] == [4, 6]

    def test_local_set_rebound_or_sorted_is_legal(self):
        assert lint(
            """
            def names(table):
                seen = set(table)
                ordered = [x for x in sorted(seen)]
                seen = sorted(seen)
                return ordered, [x for x in seen]

            def other(seen):
                return [x for x in seen]
            """
        ) == []

    def test_sorted_set_iteration_is_legal(self):
        assert lint(
            """
            def names(table):
                for name in sorted({"a", "b"}):
                    table.append(name)
                return [x for x in sorted(set(table))], len(set(table))
            """
        ) == []


class TestRep002ColumnMutation:
    def test_column_write_flagged_outside_owners(self):
        violations = lint(
            """
            def clamp(trace):
                trace.columns["sizes"][0] = 8
                trace.columns["ops"][:10] += 1
            """
        )
        assert rules_of(violations) == ["REP002", "REP002"]

    def test_decode_plane_write_flagged(self):
        violations = lint(
            """
            def invalidate(trace):
                trace._decoded = None
            """
        )
        assert rules_of(violations) == ["REP002"]

    def test_mutator_call_on_columns_flagged(self):
        violations = lint(
            """
            def drop(trace):
                trace.columns.pop("ops")
                trace.columns["ops"].sort()
            """
        )
        assert rules_of(violations) == ["REP002", "REP002"]
        assert ".pop()" in violations[0].message
        assert ".sort()" in violations[1].message

    def test_rebinding_plane_attributes_flagged(self):
        violations = lint(
            """
            def reset(trace, plane):
                trace.stamped_regions = ()
                trace.columns = {}
                plane._instructions = []
            """
        )
        assert rules_of(violations) == ["REP002"] * 3
        assert "stamped_regions" in violations[0].message

    def test_owning_modules_may_mutate(self):
        source = """
        def build(trace):
            trace.columns["sizes"][0] = 8
            trace._decoded = None
            trace.columns.pop("ops")
            trace.columns["ops"].sort()
            trace.stamped_regions = ()
            trace.columns = {}
        """
        assert rules_of(lint(source)) == ["REP002"] * 6
        assert lint(source, "repro/isa/trace.py") == []
        assert lint(source, "repro/isa/builder.py") == []
        assert lint(source, "repro/uarch/pipeline/decode.py") == []

    def test_write_through_local_column_alias_flagged(self):
        violations = lint(
            """
            def clamp(trace):
                ops = trace.columns["ops"]
                ops[0] = 1
                columns = trace.columns
                sizes = columns["sizes"]
                sizes.sort()
                del columns["takens"]
            """
        )
        assert rules_of(violations) == ["REP002"] * 3
        assert [violation.line for violation in violations] == [4, 7, 8]

    def test_write_through_decode_plane_alias_flagged(self):
        violations = lint(
            """
            from repro.uarch.pipeline.decode import decode_trace

            def poke(trace):
                plane = decode_trace(trace)
                plane.fu[0] = 0
                latency = plane.latency
                latency[0] += 1
                cached = trace._decoded
                cached.words.append(None)
            """
        )
        assert rules_of(violations) == ["REP002"] * 3
        assert [violation.line for violation in violations] == [6, 8, 10]
        assert "`_decoded`" in violations[0].message

    def test_rebound_alias_and_other_scopes_are_legal(self):
        assert lint(
            """
            def copy_first(trace):
                ops = trace.columns["ops"]
                ops = ops.copy()
                ops[0] = 1
                return ops

            def unrelated(ops, plane):
                ops[0] = 1
                plane.fu[0] = 0
            """
        ) == []

    def test_reads_and_fresh_dicts_are_legal(self):
        assert lint(
            """
            def window(trace, limit):
                columns = {
                    name: column[:limit]
                    for name, column in trace.columns.items()
                }
                first = trace.columns["ops"][0]
                return columns, first
            """
        ) == []


class TestRep005ExceptionHygiene:
    def test_bare_and_swallowed_broad_except_flagged(self):
        violations = lint(
            """
            def drain(queue):
                try:
                    queue.get()
                except:
                    pass
                try:
                    queue.put(None)
                except Exception:
                    pass
            """,
            RUNTIME,
            {"REP005"},
        )
        assert rules_of(violations) == ["REP005", "REP005"]

    def test_handled_or_narrow_excepts_are_legal(self):
        assert lint(
            """
            def drain(queue, log):
                try:
                    queue.get()
                except Exception as error:
                    log(error)
                try:
                    queue.put(None)
                except (OSError, ValueError):
                    pass
            """,
            RUNTIME,
            {"REP005"},
        ) == []

    def test_rule_scoped_to_runtime(self):
        source = """
        def best_effort(callback):
            try:
                callback()
            except Exception:
                pass
        """
        assert rules_of(lint(source, RUNTIME)) == ["REP005"]
        assert lint(source, LIB) == []


class TestSuppression:
    def test_line_suppression(self):
        violations = lint(
            """
            import time

            def stamps():
                first = time.time()  # repolint: disable=REP001
                second = time.time()
                return first, second
            """
        )
        assert len(violations) == 1
        assert violations[0].line == 6

    def test_file_suppression(self):
        assert lint(
            """
            # repolint: disable-file=REP001
            import time

            def stamps():
                return time.time(), time.time()
            """
        ) == []

    def test_suppression_is_per_rule(self):
        violations = lint(
            """
            import time

            def touch(trace):
                trace.columns["ops"][0] = 1  # repolint: disable=REP001
                return time.time()
            """
        )
        assert rules_of(violations) == ["REP001", "REP002"]


class TestRep006BlockingCalls:
    """Blocking calls in serve coroutines (REP011 checks them now)."""

    def test_time_sleep_in_coroutine_flagged(self):
        violations = lint(
            """
            import time

            async def handle():
                time.sleep(0.1)
            """,
            SERVE,
        )
        assert rules_of(violations) == ["REP011"]
        assert "asyncio.sleep" in violations[0].message

    def test_asyncio_sleep_is_legal(self):
        violations = lint(
            """
            import asyncio

            async def pace():
                await asyncio.sleep(0.1)
            """,
            SERVE,
        )
        assert violations == []


class TestRep008PerCycleAllocation:
    UARCH = "repro/uarch/pipeline/synthetic_module.py"

    def test_container_literal_inside_cycle_loop_flagged(self):
        violations = lint(
            """
            def run(n):
                cycle = 0
                while cycle < n:
                    ready = []
                    seen = {}
                    cycle += 1
                return ready, seen
            """,
            self.UARCH,
        )
        assert rules_of(violations) == ["REP008", "REP008"]
        assert "hoist" in violations[0].message

    def test_dict_keyed_by_cycle_counter_flagged(self):
        violations = lint(
            """
            def run(n, latency):
                events = {}
                cycle = 0
                while cycle < n:
                    events[cycle + latency] = 1
                    cycle += 1
            """,
            self.UARCH,
        )
        assert rules_of(violations) == ["REP008"]
        assert "timing wheel" in violations[0].message

    def test_class_instantiation_inside_cycle_loop_flagged(self):
        violations = lint(
            """
            from dataclasses import dataclass

            @dataclass
            class Slot:
                index: int

            def run(n):
                cycle = 0
                while cycle < n:
                    slot = Slot(cycle)
                    cycle += 1
                return slot
            """,
            self.UARCH,
        )
        assert rules_of(violations) == ["REP008"]
        assert "Slot" in violations[0].message

    def test_raise_and_preallocated_reuse_are_legal(self):
        assert lint(
            """
            def run(n, wheel):
                cycle = 0
                while cycle < n:
                    finishing = wheel[cycle & 63]
                    finishing.clear()
                    cycle += 1
                    if cycle > 10 * n:
                        raise RuntimeError(f"runaway at {cycle}")
            """,
            self.UARCH,
        ) == []

    def test_other_layers_are_exempt(self):
        hot_loop = """
            def run(n):
                cycle = 0
                while cycle < n:
                    ready = []
                    cycle += 1
                return ready
        """
        assert lint(hot_loop, LIB) == []
        assert lint(hot_loop, RUNTIME) == []
        assert rules_of(lint(hot_loop, self.UARCH)) == ["REP008"]

    def test_suppression_for_deliberate_scalar_core_sites(self):
        assert lint(
            """
            def run(n, wheel):
                cycle = 0
                while cycle < n:
                    wheel[cycle & 63] = []  # repolint: disable=REP008
                    cycle += 1
            """,
            self.UARCH,
        ) == []


class TestRep009AdHocPersistence:
    """Satellite: on-disk caches must route through the storage layer."""

    def test_pickle_dump_flagged_outside_owners(self):
        violations = lint(
            """
            import pickle

            def memoize(table, path):
                with open(path, "wb") as stream:
                    pickle.dump(table, stream)
            """
        )
        assert rules_of(violations) == ["REP009"]
        assert "repro.store" in violations[0].message

    def test_numpy_saves_flagged_under_alias(self):
        violations = lint(
            """
            import numpy as np

            def spill(arrays, path):
                np.save(path, arrays["a"])
                np.savez(path, **arrays)
                np.savez_compressed(path, **arrays)
            """
        )
        assert rules_of(violations) == ["REP009"] * 3

    def test_bare_name_import_and_shelve_flagged(self):
        violations = lint(
            """
            import shelve
            from marshal import dump

            def persist(table, path):
                with shelve.open(path) as store:
                    store["t"] = table
                with open(path + ".m", "wb") as stream:
                    dump(table, stream)
            """
        )
        assert rules_of(violations) == ["REP009", "REP009"]

    def test_in_memory_serialization_is_legal(self):
        assert lint(
            """
            import pickle

            def wire_bytes(table):
                return pickle.dumps(table)

            def rebuild(blob):
                return pickle.loads(blob)
            """
        ) == []

    def test_storage_layer_owners_exempt(self):
        source = """
            import pickle

            def write(table, path):
                with open(path, "wb") as stream:
                    pickle.dump(table, stream)
            """
        for owner in (
            "repro/store/packdb.py",
            "repro/runtime/cache.py",
            "repro/isa/serialize.py",
        ):
            assert lint(source, owner) == []
        assert rules_of(lint(source, LIB)) == ["REP009"]

    def test_suppression_honored(self):
        assert lint(
            """
            import pickle

            def write(graph, stream):
                pickle.dump(graph, stream)  # repolint: disable=REP009
            """
        ) == []


class TestRep010CrossModuleMutation:
    def test_write_to_imported_global_flagged(self):
        violations = lint(
            """
            from repro.config.presets import PRESETS

            def _reset():
                PRESETS["k"] = 1
            """
        )
        assert rules_of(violations) == ["REP010"]
        assert violations[0].line == 5
        assert "repro.config.presets.PRESETS" in violations[0].message

    def test_owner_module_write_exempt(self):
        # register() writes PRESETS from its own module: no finding.
        assert lint(
            """
            PRESETS = {}

            def register(name, value):
                PRESETS[name] = value
                PRESETS.update({})
            """,
            "repro/config/presets.py",
        ) == []

    def test_mutator_call_flagged_and_suppressible(self):
        source = """
            from repro.config.presets import PRESETS

            def scrub():
                PRESETS.clear()

            def scrub_quiet():
                PRESETS.clear()  # repolint: disable=REP010
            """
        violations = lint(source)
        assert rules_of(violations) == ["REP010"]
        assert violations[0].line == 5
        assert ".clear()" in violations[0].message

    def test_module_attribute_and_local_alias_flagged(self):
        violations = lint(
            """
            import repro.uarch.config as uarch_config
            from repro.uarch import config
            from repro.uarch.config import MEMORY_PRESETS

            def mutate(value):
                uarch_config.MEMORY_PRESETS["k"] = value
                config.DEFAULT_WIDTH = value
                del config.MEMORY_PRESETS["k"]
                presets = MEMORY_PRESETS
                presets.pop("k")
            """
        )
        assert [v.line for v in violations] == [7, 8, 9, 11]
        assert set(rules_of(violations)) == {"REP010"}

    def test_locals_parameters_and_other_packages_are_legal(self):
        assert lint(
            """
            import collections
            from repro.uarch.config import MEMORY_PRESETS, ProcessorConfig

            COUNTS = collections.Counter()

            def build(config):
                presets = dict(MEMORY_PRESETS)
                presets["k"] = 1
                collections.OrderedDict().update(presets)
                COUNTS.update(presets)
                processor = ProcessorConfig()
                processor.width = 2
                return presets

            def rebind():
                MEMORY_PRESETS = {}
                MEMORY_PRESETS["k"] = 2

            def shadow(MEMORY_PRESETS):
                MEMORY_PRESETS["k"] = 3
            """
        ) == []


class TestRep011BlockingCalls:
    def test_sleep_in_serve_helper_flagged(self):
        violations = lint(
            """
            import time

            def respond(request):
                time.sleep(0.05)
                return request

            def respond_quiet(request):
                time.sleep(0.05)  # repolint: disable=REP011
                return request
            """,
            SERVE,
        )
        assert rules_of(violations) == ["REP011"]
        assert violations[0].line == 5
        assert "time.sleep" in violations[0].message

    def test_sleep_in_cluster_helper_flagged(self):
        violations = lint(
            """
            from time import sleep

            def backoff(request):
                sleep(0.05)
                return request
            """,
            CLUSTER,
        )
        assert rules_of(violations) == ["REP011"]

    def test_every_library_module_is_in_scope(self):
        # A sleep in the alignment engine is flagged too: a serve
        # coroutine may come to call it.
        violations = lint(
            """
            import time

            class SsearchEngine:
                def scan_raw(self, database):
                    time.sleep(0.01)
            """,
            "repro/align/ssearch.py",
        )
        assert rules_of(violations) == ["REP011"]

    def test_untimed_get_in_coroutine_flagged(self):
        violations = lint(
            """
            async def pump(results):
                return results.get()
            """,
            CLUSTER,
        )
        assert rules_of(violations) == ["REP011"]
        assert "timeout" in violations[0].message

    def test_awaited_timed_and_keyed_gets_are_legal(self):
        assert lint(
            """
            async def pump_safely(queue, results, data):
                item = await queue.get()
                safe = results.get(timeout=1.0)
                keyed = data.get("op", "search")
                return item, safe, keyed
            """,
            CLUSTER,
        ) == []

    def test_awaited_asyncio_sleep_is_legal(self):
        assert lint(
            """
            import asyncio

            async def tick():
                await asyncio.sleep(0.01)
                return True
            """,
            SERVE,
        ) == []

    def test_uncalled_sync_function_is_flagged(self):
        # No coroutine calls warmup() yet; it is flagged before one
        # does.
        violations = lint(
            """
            import time

            def warmup(results):
                time.sleep(0.1)
                return results.get()
            """,
            CLUSTER,
        )
        assert [v.line for v in violations] == [5, 6]


class TestRep012EnvironmentReads:
    def test_env_read_outside_owners_flagged(self):
        violations = lint(
            """
            import os

            def secret_mode():
                return os.environ.get("REPRO_SECRET") == "1"
            """,
            "repro/env/scale.py",
        )
        assert rules_of(violations) == ["REP012"]
        assert violations[0].line == 5

    def test_every_read_form_flagged(self):
        violations = lint(
            """
            import os as system
            from os import environ, getenv

            def read():
                return (
                    system.environ["A"], system.getenv("B"),
                    environ.get("C"), getenv("D"), "E" in system.environ,
                )
            """
        )
        assert [v.line for v in violations] == [7, 7, 8, 8, 8]

    def test_dotted_import_binds_the_package(self):
        # ``import os.path`` binds ``os`` itself, environ included.
        violations = lint(
            """
            import os.path

            def home():
                return os.environ["HOME"]
            """
        )
        assert rules_of(violations) == ["REP012"]

    def test_owner_modules_may_read(self):
        source = """
            import os

            def scale_factor():
                return float(os.environ.get("REPRO_SCALE", "1"))
            """
        assert lint(source, "repro/workloads/suite.py") == []
        assert lint(source, "repro/__main__.py") == []
        # The same read anywhere else escapes the keys' view.
        assert rules_of(lint(source)) == ["REP012"]

    def test_suppressed_read_filtered(self):
        source = """
            import os

            def secret_mode_quiet():
                return os.getenv("REPRO_SECRET")  # repolint: disable=REP012
            """
        assert lint(source) == []
        raw = lint_source(
            textwrap.dedent(source), LIB, honor_suppressions=False
        )
        assert rules_of(raw) == ["REP012"]


class TestSyntaxErrors:
    def test_unparsable_source_is_rep000(self):
        violations = lint_source("def broken(:\n", LIB)
        assert rules_of(violations) == ["REP000"]


class TestRepoGate:
    def test_shipped_package_is_clean(self):
        violations = lint_paths()
        assert violations == [], "\n".join(
            str(violation) for violation in violations
        )


class TestRep006FlowRouting:
    """A ``time.sleep`` in a synchronous helper a coroutine calls.

    REP011 flags the sleep where it is written, in both serving layers
    (the single server and the cluster router), whoever calls it.
    """

    def test_blocking_call_one_helper_deep(self):
        helper = """
            import time

            def respond(request):
                time.sleep(0.05)
                return request
            """
        for relative in (SERVE, CLUSTER):
            violations = lint(helper, relative)
            assert rules_of(violations) == ["REP011"]
            assert violations[0].line == 5


class TestSuppressionInventory:
    def test_comments_enumerated_per_rule(self):
        source = (
            "x = 1  # repolint: disable=REP001,REP002\n"
            "# repolint: disable-file=REP010\n"
        )
        assert suppression_comments(source) == [
            (1, "REP001", False),
            (1, "REP002", False),
            (2, "REP010", True),
        ]

    def test_retired_flowlint_tag_is_inert(self):
        # Only the repolint tag suppresses, so a disable under any
        # other tag cannot hide a finding.
        source = (
            "import os\n"
            "x = os.environ.get('X')  # flowlint: disable=REP012\n"
        )
        assert suppression_comments(source) == []
        assert rules_of(lint(source)) == ["REP012"]

    def test_docstring_mentions_are_not_comments(self):
        source = (
            '"""Shows `# repolint: disable=REP001` in docs."""\n'
            "x = 1\n"
        )
        assert suppression_comments(source) == []


class TestStaleSuppressions:
    def test_dead_disable_flagged_live_one_kept(self, tmp_path):
        module = tmp_path / "repro" / "runtime" / "tasks.py"
        module.parent.mkdir(parents=True)
        module.write_text(
            "import os\n"
            "\n"
            "def _mode(payload):\n"
            "    return (payload, os.environ.get('REPRO_MODE'))"
            "  # repolint: disable=REP012\n"
            "\n"
            "def plain(value):\n"
            "    return value + 1  # repolint: disable=REP001\n"
        )
        stale = stale_suppressions(tmp_path / "repro")
        assert [(v.path, v.line) for v in stale] == [
            ("repro/runtime/tasks.py", 7)
        ]
        assert "REP001" in stale[0].message
        # The live REP012 disable (suppressing a real finding) is kept.

    def test_docstring_examples_are_not_suppressions(self):
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
# Fuzz: the rules never crash on syntactically valid modules
# ----------------------------------------------------------------------

_NAMES = st.sampled_from(
    ["alpha", "beta", "config", "trace", "run", "helper", "value"]
)

_SNIPPETS = [
    "import time",
    "import numpy as np",
    "import repro.other as {a}",
    "from repro.other import {a}",
    "GLOBAL_TABLE = {{'one': {a}, 'two': {b}}}",
    "def {a}({b}):\n    return {b}",
    "def {a}(trace):\n    trace.cols = ()\n    trace.rows.append(1)",
    "def {a}():\n    return time.time()",
    "async def {a}():\n    import asyncio\n    await asyncio.sleep(0)",
    "def {a}(x):\n    {b} = GLOBAL_TABLE[x]\n    {b}[x] = x\n"
    "    {b}.pop(x)",
    "def {a}(x):\n    {b}[x], {b}.y = x, x\n    del {b}[x]",
    "def {a}(x):\n    for item in {{1, 2, 3}}:\n        x += item\n"
    "    return x",
    "class {A}:\n    def run(self, *args, **kwargs):\n"
    "        self.{b}.update(args)\n        return lambda {b}: {b}",
    "def {a}():\n    import os\n    return os.environ.get('X')",
    "def {a}(x):\n    global COUNT\n    COUNT = x",
    "def {a}(x):\n    if (y := x):\n        return y\n    return None",
    "def {a}(x):\n    try:\n        return x.get()\n"
    "    except Exception:\n        return None",
    "def {a}(x):\n    while x:\n        x = [x]\n    return x",
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
    def test_rules_never_crash(self, source):
        ast.parse(source)  # the strategy only emits valid modules
        for relative in (LIB, RUNTIME, SERVE, "repro/uarch/fuzzed.py"):
            for violation in lint_source(source, relative):
                assert violation.rule != "REP000"
