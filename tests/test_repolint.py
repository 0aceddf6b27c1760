"""RepoLint: rule units on synthetic sources, suppression, repo gate.

``TestRepoGate`` is the tier-1 gate: the shipped package must be clean
under every REP rule, so any regression (a new wall-clock read in
library code, a column mutation outside repro.isa, a swallowed except
in the runtime) fails the suite.
"""

from __future__ import annotations

import textwrap

from repro.verify import lint_paths, lint_source

LIB = "repro/analysis/synthetic_module.py"
RUNTIME = "repro/runtime/synthetic_module.py"


def rules_of(violations) -> list[str]:
    return [violation.rule for violation in violations]


def lint(source: str, relative: str = LIB):
    return lint_source(textwrap.dedent(source), relative)


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
    """Blocking calls in serve coroutines, now checked by FL004.

    The per-file REP006 rule is gone; the flow engine's FL004 owns the
    hazard.  These cases lint a one-file package under ``repro/serve``.
    """

    @staticmethod
    def flow_lint(tmp_path, source: str):
        from repro.verify import flow

        module = tmp_path / "repro" / "serve" / "synthetic_module.py"
        module.parent.mkdir(parents=True)
        module.write_text(textwrap.dedent(source))
        graph = flow.build_graph(tmp_path / "repro", spec=flow.TaintSpec())
        return flow.lint_flow(graph=graph, honor_suppressions=False)

    def test_time_sleep_in_coroutine_flagged(self, tmp_path):
        violations = self.flow_lint(
            tmp_path,
            """
            import time

            async def handle():
                time.sleep(0.1)
            """,
        )
        assert rules_of(violations) == ["FL004"]
        assert "asyncio.sleep" in violations[0].message

    def test_asyncio_sleep_is_legal(self, tmp_path):
        violations = self.flow_lint(
            tmp_path,
            """
            import asyncio

            async def pace():
                await asyncio.sleep(0.1)
            """,
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
    """A ``time.sleep`` one synchronous helper below a serve coroutine.

    A direct-body check cannot see it; the flow engine's FL004 can, in
    both serving layers (the single server and the cluster router).
    """

    def test_blocking_call_one_helper_deep(self):
        from pathlib import Path

        from repro.verify import flow

        fixture = (
            Path(__file__).parent / "flow_fixtures" / "fl004" / "repro"
        )
        graph = flow.build_graph(fixture, spec=flow.TaintSpec())
        findings = [
            f for f in flow.lint_flow(graph=graph)
            if "time.sleep" in f.message
        ]
        assert rules_of(findings) == ["FL004", "FL004"]
        assert {f.path for f in findings} == {
            "repro/cluster/backoff.py", "repro/serve/sync_ops.py"
        }
        assert all(len(f.chain) > 1 for f in findings)


class TestSuppressionInventory:
    def test_comments_enumerated_per_rule(self):
        from repro.verify.repolint import suppression_comments

        source = (
            "x = 1  # repolint: disable=REP001,REP002\n"
            "# flowlint: disable-file=FL003\n"
        )
        entries = suppression_comments(source)
        assert (1, "repolint", "REP001", False) in entries
        assert (1, "repolint", "REP002", False) in entries
        assert (2, "flowlint", "FL003", True) in entries

    def test_docstring_mentions_are_not_comments(self):
        from repro.verify.repolint import suppression_comments

        source = (
            '"""Shows `# repolint: disable=REP001` in docs."""\n'
            "x = 1\n"
        )
        assert suppression_comments(source) == []
