"""Tests for the benchmark's own code (run: python3 -m pytest e2ebench/tests)."""

from __future__ import annotations

import asyncio
import copy
import json
import math

import pytest

import loadgen
import run
import spec
import stats


# -- percentiles --------------------------------------------------------------

def test_nearest_rank_picks_the_ceil_rank():
    values = list(range(1, 101))
    assert stats.nearest_rank(values, 50) == 50
    assert stats.nearest_rank(values, 95) == 95
    assert stats.nearest_rank(values, 100) == 100
    assert stats.nearest_rank([3.0, 1.0, 2.0], 50) == 2.0
    assert stats.nearest_rank([7.0], 95) == 7.0


def test_nearest_rank_matches_the_runtime_definition():
    from repro.runtime.metrics import percentiles

    values = [0.3, 1.7, 0.2, 9.1, 4.4, 4.4, 0.01, 2.5, 3.3]
    ours = {f"p{p}": stats.nearest_rank(values, p) for p in (50, 95, 99)}
    assert ours == percentiles(values)


def test_nearest_rank_rejects_empty_and_bad_points():
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50)
    with pytest.raises(ValueError):
        stats.nearest_rank([1.0], 0)


def test_p95_needs_ten_samples_beyond_it():
    assert stats.beyond(200, 95) == 10
    assert stats.supported(200, 95)
    assert not stats.supported(199, 95)
    assert stats.supported(20, 50)
    assert not stats.supported(19, 50)


# -- due-time latency -----------------------------------------------------------

def record(due, done, ok=True):
    return {"due": due, "done": done, "ok": ok}


def test_latency_is_measured_from_the_due_time():
    records = [record(0.0, 0.1), record(1.0, 1.5, ok=True)]
    assert stats.due_latencies(records) == pytest.approx([0.1, 0.5])


def test_failed_requests_miss_every_limit():
    records = [record(index * 0.05, index * 0.05 + 0.01) for index in range(190)]
    records += [record(10.0, 10.01, ok=False) for _ in range(10)]
    latencies = stats.due_latencies(records)
    assert sum(math.isinf(value) for value in latencies) == 10
    # Ten failures sit beyond the p95 of 200: it is still finite ...
    assert stats.nearest_rank(latencies, 95) == pytest.approx(0.01)
    # ... and one more failure pushes it past any limit.
    records[0]["ok"] = False
    assert math.isinf(stats.nearest_rank(stats.due_latencies(records), 95))


# -- backlog on the rate ladder ------------------------------------------------

def ladder_step(rate, count, service, extra_per_request=0.0):
    """Synthetic records for a server taking ``service`` seconds per
    request plus ``extra_per_request`` more queueing per arrival."""
    return [
        record(index / rate, index / rate + service + index * extra_per_request)
        for index in range(count)
    ]


def test_a_step_that_keeps_up_has_no_backlog():
    assert not stats.backlog_grows(ladder_step(20.0, 200, 0.05), 20.0)


def test_a_step_whose_wait_grows_with_every_arrival_is_backlogged():
    assert stats.backlog_grows(ladder_step(40.0, 200, 0.05, 0.02), 40.0)


def test_a_step_whose_tail_drains_long_after_the_last_arrival_is_backlogged():
    records = ladder_step(20.0, 200, 0.05)
    records[-1]["done"] = records[-1]["due"] + 5.0
    assert stats.backlog_grows(records, 20.0)


def test_step_passes_only_without_failures_backlog_or_a_slow_p95():
    from search import P95_LIMIT_MS, step_passes

    good = ladder_step(20.0, 200, 0.05)
    assert step_passes(good, 20.0)
    slow = ladder_step(20.0, 200, P95_LIMIT_MS / 1e3 + 0.1)
    assert not step_passes(slow, 20.0)
    failed = copy.deepcopy(good)
    failed[3]["ok"] = False
    assert not step_passes(failed, 20.0)
    assert not step_passes(ladder_step(20.0, 150, 0.05), 20.0)  # p95 unsupported


# -- BENCHMARK.json ------------------------------------------------------------

@pytest.fixture
def definition():
    return spec.load_spec()


def test_benchmark_json_is_valid_and_names_known_workloads(definition):
    assert definition["command"] == ["python3", "e2ebench/run.py"]
    assert definition["paths"] == ["e2ebench"]
    for workload in definition["workloads"]:
        assert workload["name"] in run.WORKLOADS


def end_to_end_result(definition, **values):
    metrics = {metric["name"]: 1.0 for metric in definition["end_to_end"]}
    metrics.update(values)
    return {"correct": True, "attempted": 3, "failed": 0, "end_to_end": metrics}


def test_render_prints_exactly_the_declared_metrics(definition):
    line = json.loads(run.render(definition, False, end_to_end_result(definition)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in definition["end_to_end"]}
    assert line["metrics"]["setup_s"] == {"value": 1.0, "unit": "s"}


def test_render_refuses_missing_undeclared_or_infinite_metrics(definition):
    result = end_to_end_result(definition)
    del result["end_to_end"]["wall_s"]
    with pytest.raises(spec.SpecError, match="wall_s"):
        run.render(definition, False, result)
    with pytest.raises(spec.SpecError, match="bogus"):
        run.render(definition, False, end_to_end_result(definition, bogus=1.0))
    with pytest.raises(spec.SpecError, match="non-finite"):
        run.render(definition, False, end_to_end_result(definition, p95_ms=math.inf))


def test_traced_render_fills_unexercised_layers_with_zero(definition):
    result = {"correct": True, "attempted": 1, "failed": 0,
              "per_layer": {"store.pack_s": 0.5}}
    line = json.loads(run.render(definition, True, result))
    assert set(line["metrics"]) == {m["name"] for m in definition["per_layer"]}
    assert line["metrics"]["store.pack_s"]["value"] == 0.5
    assert line["metrics"]["uarch.simulate_s"]["value"] == 0.0
    with pytest.raises(spec.SpecError, match="undeclared"):
        run.render(definition, True, dict(result, per_layer={"nope": 1.0}))


def test_every_experiment_has_a_per_layer_metric(definition):
    from repro.analysis.experiments import EXPERIMENTS

    names = {metric["name"] for metric in definition["per_layer"]}
    assert {f"analysis.{identifier}_s" for identifier in EXPERIMENTS} <= names


# -- the open-loop driver --------------------------------------------------------

async def _serve_big_lines(size: int, delay: float):
    async def handle(reader, writer):
        while True:
            line = await reader.readline()
            if not line:
                break
            request = json.loads(line)
            await asyncio.sleep(delay)
            body = {"id": request["id"], "status": "ok", "pad": "x" * size}
            writer.write((json.dumps(body) + "\n").encode())
            await writer.drain()
        writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def test_open_loop_reads_lines_longer_than_64_kib_and_times_from_due():
    async def scenario():
        server = await _serve_big_lines(200_000, delay=0.05)
        port = server.sockets[0].getsockname()[1]
        payloads = [{"op": "search", "id": str(i), "algorithm": "blast"}
                    for i in range(10)]
        try:
            return await loadgen.open_loop("127.0.0.1", port, payloads, 50.0,
                                           keep={"3"}, grace=5.0)
        finally:
            server.close()
            await server.wait_closed()

    records = asyncio.run(scenario())
    assert [record["ok"] for record in records] == [True] * 10
    assert len(records[3]["line"]) > 200_000
    for record in records:
        assert record["done"] - record["due"] >= 0.05
        assert record["sent"] >= record["due"]
    dues = [record["due"] for record in records]
    assert dues[1] - dues[0] == pytest.approx(0.02)


def test_open_loop_marks_unanswered_requests_failed():
    async def scenario():
        async def silent(reader, writer):
            await reader.read()
            writer.close()

        server = await asyncio.start_server(silent, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            return await loadgen.open_loop(
                "127.0.0.1", port, [{"op": "search", "id": "a"}], 10.0, grace=0.2)
        finally:
            server.close()
            await server.wait_closed()

    (only,) = asyncio.run(scenario())
    assert not only["ok"] and only["status"] == "unanswered"
    assert math.isinf(stats.due_latencies([only])[0])


# -- traffic generation -------------------------------------------------------------

def test_traffic_is_a_function_of_the_seed():
    from search import DISTINCT, HOT_SMALL, STEP_REQUESTS, make_traffic, nominal_requests

    assert nominal_requests(DISTINCT, 45) == 360  # 45 s at 8/s
    assert nominal_requests(DISTINCT, 1) == STEP_REQUESTS  # p95 stays supported
    warmup, first = make_traffic(DISTINCT, 11, 300)
    assert warmup == []
    assert first == make_traffic(DISTINCT, 11, 300)[1]
    assert first != make_traffic(DISTINCT, 12, 300)[1]
    assert [len(step) for step in first] == [300, STEP_REQUESTS]
    texts = [payload["query"] for step in first for payload in step]
    assert len(set(texts)) == len(texts)  # search-distinct: every query new
    assert [DISTINCT.mix.count(name) for name in ("blast", "fasta", "ssearch")] \
        == [15, 3, 2]
    mix = [payload["algorithm"] for payload in first[0]]
    assert mix == [DISTINCT.mix[i % len(DISTINCT.mix)] for i in range(len(mix))]
    # Another seed sends each step's queries with the same algorithms,
    # only in another order.
    other = make_traffic(DISTINCT, 12, 300)[1]
    for ours, theirs in zip(first, other):
        assert sorted((p["algorithm"], p["query"]) for p in ours) \
            == sorted((p["algorithm"], p["query"]) for p in theirs)
    warmup, hot = make_traffic(HOT_SMALL, 11, 300)
    assert len(warmup) == HOT_SMALL.warmup
    ids = [payload["id"] for payload in warmup + [p for step in hot for p in step]]
    assert len(set(ids)) == len(ids)
    texts = [payload["query"] for step in hot for payload in step]
    assert len(set(texts)) < len(texts)  # search-hot-*: repeats popular queries
    # The pool and its popularity ranks are fixed; the seed draws from it.
    ranked = {p["query_id"]: p["query"]
              for step in make_traffic(HOT_SMALL, 12, 300)[1] for p in step}
    assert all(ranked.get(p["query_id"], p["query"]) == p["query"]
               for step in hot for p in step)


def test_queries_are_paper_length_slices_of_the_database():
    from search import DISTINCT, database_sequences, make_traffic, query_length

    assert query_length() == 222  # P14942, the query of the paper's figures
    subjects = [sequence.text for sequence in database_sequences(DISTINCT)]
    assert len(subjects) == DISTINCT.db_sequences
    texts = [payload["query"] for payload in make_traffic(DISTINCT, 5, 200)[1][0]]
    for text in texts:
        assert len(text) == 222
        assert any(text in subject for subject in subjects)


# -- process trees -------------------------------------------------------------------

def test_pss_covers_descendants_and_reap_ends_them():
    import os
    import subprocess
    import sys
    import time

    import memory

    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        deadline = time.monotonic() + 10
        while child.pid not in memory.descendants(os.getpid()):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        own = memory.pss_kib(os.getpid()) / 1024
        assert memory.tree_pss_mb(os.getpid()) > own > 0
        memory.reap([child.pid])
        assert not memory.alive(child.pid)
    finally:
        child.kill()
        child.wait(timeout=10)
