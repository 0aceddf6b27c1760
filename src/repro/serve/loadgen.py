"""Load generator for the alignment-search service.

Drives a service — in-process (``--loopback``) or over TCP
(``--connect host:port``) — with a deterministic query workload and
produces a latency/throughput report in the spirit of the benchmark
suite's ``BENCH_core.json`` artifact.

Two arrival disciplines:

* **closed loop** (default): ``--concurrency`` workers each keep one
  request in flight, back to back.  Throughput is limited by service
  capacity; this is what exercises dynamic batching hardest.
* **open loop** (``--rate R``): requests arrive on a seeded exponential
  schedule at R requests/second regardless of completions, the
  standard way to expose queueing delay and load shedding.

``--compare-batch-size N`` (loopback only) runs the same workload
twice — once with the configured batch size, once with batch size N —
and reports the throughput ratio; ``--require-speedup X`` turns that
ratio into an exit code for CI.

``--targets a:p,b:q`` opens one connection per address and deals the
workload round-robin (drive a whole cluster's replicas, or its router
plus a control server, with one deterministic schedule).
``--require-p99-ms D`` prints a p99-deadline-compliance line and turns
it into an exit code, so the cluster chaos gate is a one-liner:
open-loop rate, kill a replica mid-run, require zero failures
(``--fail-on-error``) and p99 within the deadline.

Latency percentiles use the same nearest-rank definition as the run
reports and the service telemetry
(:func:`repro.runtime.metrics.percentiles`).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import random
from dataclasses import replace
from pathlib import Path

from repro.bio.synthetic import SyntheticDatabaseConfig, generate_database
from repro.runtime.metrics import percentiles
from repro.serve.protocol import MAX_LINE_BYTES, encode_response
from repro.serve.scheduler import BatchPolicy
from repro.serve.server import (
    AlignmentService,
    add_serve_arguments,
    build_config,
)

#: Statuses a response may carry (report buckets).
STATUSES = ("ok", "shed", "timeout", "error")


def make_workload(
    database: SyntheticDatabaseConfig,
    count: int,
    pool_size: int,
    length: int,
    algorithm: str,
    seed: int,
    threshold: int | None = None,
    tag: str = "q",
) -> list[dict]:
    """Deterministic request payloads: a query pool, cycled.

    Queries are slices of database sequences (so they produce real
    hits), drawn by a seeded RNG.  A small pool cycled over many
    requests models hot-query traffic (caches and worker-side engine
    memos absorb it); a pool as large as the run models all-distinct
    traffic, where every request pays a real scan and dynamic batching
    is what amortizes the shared database pass.
    """
    sequences = generate_database(database)
    rng = random.Random(seed)
    pool = []
    for index in range(pool_size):
        subject = sequences[rng.randrange(len(sequences))]
        start = rng.randrange(max(1, len(subject) - length))
        text = subject.text[start:start + length]
        pool.append((f"{tag}{index}", text))
    payloads = []
    for number in range(count):
        payload = {
            "op": "search",
            "id": str(number),
            "query_id": pool[number % pool_size][0],
            "query": pool[number % pool_size][1],
            "algorithm": algorithm,
        }
        if threshold is not None:
            payload["threshold"] = threshold
        payloads.append(payload)
    return payloads


class LoopbackClient:
    """Drives an in-process :class:`AlignmentService`."""

    def __init__(self, service: AlignmentService) -> None:
        self.service = service

    async def request(self, payload: dict) -> dict:
        line = encode_response(payload)
        return await self.service.handle_line(line)

    async def close(self) -> None:
        return None


class MultiTargetClient:
    """Round-robins requests across several connected clients.

    This is how a cluster acceptance run drives the topology: one
    connection per target (usually just the router; optionally each
    replica directly) with payloads dealt in arrival order, so every
    target sees an interleaved slice of the same deterministic
    workload.
    """

    def __init__(self, clients: list) -> None:
        if not clients:
            raise ValueError("need at least one target client")
        self.clients = clients
        self._next = 0

    async def request(self, payload: dict) -> dict:
        client = self.clients[self._next % len(self.clients)]
        self._next += 1
        return await client.request(payload)

    async def close(self) -> None:
        for client in self.clients:
            await client.close()


class TcpClient:
    """One TCP connection with id-matched response routing.

    All workers share the connection; requests pipeline and the reader
    task resolves each response future by its ``id``.
    """

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: dict[str, asyncio.Future] = {}
        self.reader_task = asyncio.get_running_loop().create_task(
            self._read_responses()
        )

    @classmethod
    async def connect(cls, host: str, port: int) -> "TcpClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_LINE_BYTES
        )
        return cls(reader, writer)

    async def _read_responses(self) -> None:
        while True:
            raw = await self.reader.readline()
            if not raw:
                break
            response = json.loads(raw)
            future = self.pending.pop(str(response.get("id", "")), None)
            if future is not None and not future.done():
                future.set_result(response)
        for future in self.pending.values():
            if not future.done():
                future.set_exception(
                    ConnectionError("server closed the connection")
                )
        self.pending.clear()

    async def request(self, payload: dict) -> dict:
        future = asyncio.get_running_loop().create_future()
        self.pending[str(payload["id"])] = future
        self.writer.write((encode_response(payload) + "\n").encode())
        await self.writer.drain()
        return await future

    async def close(self) -> None:
        self.reader_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self.reader_task
        with contextlib.suppress(ConnectionError):
            self.writer.close()
            await self.writer.wait_closed()


async def drive(
    client,
    requests: list[dict],
    concurrency: int,
    rate: float | None,
    seed: int,
) -> dict:
    """Run the workload; returns latencies, statuses, wall time."""
    loop = asyncio.get_running_loop()
    latencies: list[float] = []
    statuses = {status: 0 for status in STATUSES}

    async def one(payload: dict) -> None:
        start = loop.time()
        response = await client.request(payload)
        latencies.append(loop.time() - start)
        status = response.get("status", "error")
        statuses[status] = statuses.get(status, 0) + 1

    began = loop.time()
    if rate is None:
        # Closed loop: workers drain a shared iterator back to back.
        iterator = iter(requests)

        async def worker() -> None:
            for payload in iterator:
                await one(payload)

        await asyncio.gather(
            *(worker() for _ in range(max(1, concurrency)))
        )
    else:
        # Open loop: seeded exponential arrivals, fire and collect.
        rng = random.Random(seed)
        tasks = []
        for payload in requests:
            tasks.append(loop.create_task(one(payload)))
            await asyncio.sleep(rng.expovariate(rate))
        await asyncio.gather(*tasks)
    wall_time = loop.time() - began
    return {
        "latencies": latencies,
        "statuses": statuses,
        "wall_time": wall_time,
    }


def summarize(outcome: dict, args, batch_size: int) -> dict:
    """Shape one drive outcome into the report dict."""
    latencies = outcome["latencies"]
    mean = sum(latencies) / len(latencies) if latencies else 0.0
    wall_time = outcome["wall_time"]
    report = {
        "mode": "open" if args.rate else "closed",
        "requests": len(latencies),
        "concurrency": args.concurrency,
        "rate": args.rate,
        "algorithm": args.algorithm,
        "batch_size": batch_size,
        "shards": args.shards,
        "jobs": args.jobs,
        "query_pool": (
            len(latencies)
            if getattr(args, "distinct_queries", False)
            else args.query_pool
        ),
        "distinct_queries": getattr(args, "distinct_queries", False),
        "threshold": args.threshold,
        "wall_time": round(wall_time, 6),
        "throughput_rps": round(
            len(latencies) / wall_time if wall_time else 0.0, 3
        ),
        "statuses": outcome["statuses"],
        "latency": {
            "mean": round(mean, 6),
            **{
                point: round(value, 6)
                for point, value in percentiles(latencies).items()
            },
        },
    }
    limit_ms = getattr(args, "require_p99_ms", None)
    if limit_ms is not None:
        report["deadline"] = deadline_compliance(
            report, latencies, limit_ms
        )
    return report


def deadline_compliance(report: dict, latencies: list[float], limit_ms: float) -> dict:
    """p99-vs-deadline summary: the cluster acceptance gate's shape.

    ``compliant`` is the gate (`--require-p99-ms`): nearest-rank p99
    latency at or under the deadline.  ``within_pct`` reports how much
    of the whole run met the deadline, which diagnoses *how* a miss
    happened (a fat tail vs a shifted distribution).
    """
    p99_ms = report["latency"].get("p99", 0.0) * 1e3
    within = sum(1 for value in latencies if value * 1e3 <= limit_ms)
    total = len(latencies)
    return {
        "limit_ms": limit_ms,
        "p99_ms": round(p99_ms, 3),
        "within_pct": round(100.0 * within / total if total else 0.0, 2),
        "compliant": p99_ms <= limit_ms,
    }


async def run_loopback(args, batch_size: int) -> dict:
    """One full loopback run at the given batch size."""
    config = build_config(args)
    config = replace(
        config,
        policy=BatchPolicy(
            max_batch=batch_size, max_wait=args.max_wait
        ),
    )
    distinct = getattr(args, "distinct_queries", False)
    pool_size = args.requests if distinct else args.query_pool
    requests = make_workload(
        config.database, args.requests, pool_size,
        args.query_length, args.algorithm, args.seed,
        threshold=args.threshold,
    )
    if distinct:
        # Distinct-query traffic: every request is a cache miss and
        # pays a real scan.  Warm with a *non-overlapping* pool so the
        # workers (spawn, imports, database generation, word tables)
        # are hot but the measured queries are not pre-cached.
        warmup = make_workload(
            config.database, 8, 8, args.query_length,
            args.algorithm, args.seed + 1009,
            threshold=args.threshold, tag="warm",
        )
    else:
        # Hot-pool traffic: one pass over the query pool pays engine
        # compiles and cold scans, so both sides of an A/B comparison
        # measure the same cached steady state.
        seen: dict[str, dict] = {}
        for payload in requests:
            seen.setdefault(payload["query_id"], payload)
        warmup = list(seen.values())
    async with AlignmentService(config) as service:
        client = LoopbackClient(service)
        if config.precompute and args.threshold is not None:
            # start() precomputed the default table; the benchmark
            # threshold needs its own.
            await asyncio.get_running_loop().run_in_executor(
                None, service.runtime.precompute_words, args.threshold
            )
        for payload in warmup:
            await client.request(dict(payload))
        outcome = await drive(
            client, requests, args.concurrency, args.rate, args.seed
        )
        report = summarize(outcome, args, batch_size)
        report["telemetry"] = service.telemetry.snapshot()
        return report


async def best_of(args, batch_size: int) -> dict:
    """Best-throughput loopback run over ``--trials`` attempts.

    Each trial is a fresh service (pool, caches, telemetry), so trials
    are independent samples of the same cold-ish configuration; taking
    the best damps OS-scheduler noise without mixing measurements.
    """
    best: dict | None = None
    for trial in range(max(1, getattr(args, "trials", 1))):
        report = await run_loopback(args, batch_size)
        if (
            best is None
            or report["throughput_rps"] > best["throughput_rps"]
        ):
            best = report
            best["trial"] = trial + 1
    assert best is not None
    best["trials"] = max(1, getattr(args, "trials", 1))
    return best


def parse_address(address: str) -> tuple[str, int]:
    """``host:port`` (host optional) into a connectable pair."""
    host, _, port = address.rpartition(":")
    return host or "127.0.0.1", int(port)


async def run_connect(args, addresses: list[tuple[str, int]]) -> dict:
    """Drive one or more remote servers over TCP (round-robin)."""
    database = SyntheticDatabaseConfig(
        sequence_count=args.db_sequences,
        seed=args.db_seed,
        family_count=2,
        family_size=3,
        mean_length=200.0,
    )
    distinct = getattr(args, "distinct_queries", False)
    pool_size = args.requests if distinct else args.query_pool
    requests = make_workload(
        database, args.requests, pool_size,
        args.query_length, args.algorithm, args.seed,
        threshold=args.threshold,
    )
    clients = [
        await TcpClient.connect(host, port) for host, port in addresses
    ]
    client = (
        clients[0] if len(clients) == 1 else MultiTargetClient(clients)
    )
    try:
        outcome = await drive(
            client, requests, args.concurrency, args.rate, args.seed
        )
        report = summarize(outcome, args, args.batch_size)
        if len(clients) == 1:
            telemetry = await clients[0].request(
                {"op": "telemetry", "id": "loadgen-telemetry"}
            )
            report["telemetry"] = telemetry.get("telemetry", {})
        else:
            report["targets"] = [
                f"{host}:{port}" for host, port in addresses
            ]
            report["telemetry"] = {}
            for (host, port), target in zip(addresses, clients):
                telemetry = await target.request(
                    {"op": "telemetry", "id": f"loadgen-{host}:{port}"}
                )
                report["telemetry"][f"{host}:{port}"] = telemetry.get(
                    "telemetry", {}
                )
    finally:
        if len(clients) == 1:
            await clients[0].close()
        else:
            await client.close()
    return report


def format_summary(report: dict) -> str:
    """Human-readable one-run summary."""
    latency = report["latency"]
    statuses = ", ".join(
        f"{status}={count}"
        for status, count in report["statuses"].items()
        if count
    )
    return (
        f"{report['mode']}-loop {report['requests']} requests "
        f"({report['algorithm']}, batch={report['batch_size']}, "
        f"shards={report['shards']}, jobs={report['jobs']}): "
        f"{report['throughput_rps']} req/s, "
        f"p50={latency.get('p50', 0) * 1e3:.1f}ms "
        f"p95={latency.get('p95', 0) * 1e3:.1f}ms "
        f"p99={latency.get('p99', 0) * 1e3:.1f}ms "
        f"[{statuses}]"
    )


def main_loadgen(argv: list[str] | None = None) -> int:
    """``repro loadgen``: benchmark a service, write a report."""
    parser = argparse.ArgumentParser(
        prog="repro loadgen",
        description="Latency/throughput benchmark for repro serve.",
    )
    parser.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="drive a running server instead of a loopback service",
    )
    parser.add_argument(
        "--targets", default=None, metavar="HOST:PORT[,HOST:PORT...]",
        help="drive several running servers round-robin (e.g. every "
             "replica of a cluster, or the router plus a control); "
             "supersedes --connect",
    )
    parser.add_argument(
        "--require-p99-ms", type=float, default=None, metavar="MS",
        help="deadline-compliance gate: report p99 vs this deadline "
             "and exit non-zero when p99 exceeds it",
    )
    parser.add_argument(
        "--requests", type=int, default=100,
        help="total requests to send (default 100)",
    )
    parser.add_argument(
        "--concurrency", type=int, default=16,
        help="closed-loop in-flight requests (default 16)",
    )
    parser.add_argument(
        "--rate", type=float, default=None,
        help="open-loop arrivals per second (default: closed loop)",
    )
    parser.add_argument(
        "--algorithm", default="blast",
        choices=("ssearch", "fasta", "blast"),
        help="search application to request (default blast)",
    )
    parser.add_argument(
        "--query-length", type=int, default=64,
        help="residues per query (default 64)",
    )
    parser.add_argument(
        "--query-pool", type=int, default=16,
        help="distinct queries cycled over the run (default 16)",
    )
    parser.add_argument(
        "--distinct-queries", action="store_true",
        help="give every request its own query (cache-miss traffic; "
             "overrides --query-pool)",
    )
    parser.add_argument(
        "--threshold", type=int, default=None,
        help="BLAST neighborhood threshold for the requests "
             "(blastp -f; higher is faster, less sensitive)",
    )
    parser.add_argument(
        "--seed", type=int, default=42,
        help="workload/arrival RNG seed (default 42)",
    )
    parser.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the JSON report artifact here",
    )
    parser.add_argument(
        "--compare-batch-size", type=int, default=None, metavar="N",
        help="loopback only: rerun with batch size N and report the "
             "throughput ratio (e.g. 1 for the unbatched baseline)",
    )
    parser.add_argument(
        "--trials", type=int, default=1, metavar="N",
        help="loopback only: run each configuration N times and keep "
             "the best-throughput run (best-of-N damps scheduler noise "
             "on shared machines; default 1)",
    )
    parser.add_argument(
        "--require-speedup", type=float, default=None, metavar="X",
        help="with --compare-batch-size: exit non-zero unless the "
             "configured batch beats the comparison by X times",
    )
    parser.add_argument(
        "--fail-on-error", action="store_true",
        help="exit non-zero if any request ended shed/timeout/error",
    )
    add_serve_arguments(parser)
    args = parser.parse_args(argv)

    async def run() -> tuple[dict, int]:
        if args.targets is not None or args.connect is not None:
            if args.compare_batch_size is not None:
                parser.error("--compare-batch-size needs --loopback mode")
            raw = args.targets if args.targets is not None else args.connect
            addresses = [
                parse_address(part)
                for part in raw.split(",") if part.strip()
            ]
            report = await run_connect(args, addresses)
        else:
            report = await best_of(args, args.batch_size)
            if args.compare_batch_size is not None:
                baseline = await best_of(args, args.compare_batch_size)
                ratio = (
                    report["throughput_rps"]
                    / baseline["throughput_rps"]
                    if baseline["throughput_rps"]
                    else 0.0
                )
                report["comparison"] = {
                    "batch_size": args.compare_batch_size,
                    "throughput_rps": baseline["throughput_rps"],
                    "latency": baseline["latency"],
                    "speedup": round(ratio, 3),
                }
        status = 0
        failures = sum(
            count for key, count in report["statuses"].items()
            if key != "ok"
        )
        if args.fail_on_error and failures:
            status = 1
        comparison = report.get("comparison")
        if (
            args.require_speedup is not None
            and comparison is not None
            and comparison["speedup"] < args.require_speedup
        ):
            status = 1
        deadline = report.get("deadline")
        if deadline is not None and not deadline["compliant"]:
            status = 1
        return report, status

    report, status = asyncio.run(run())
    print(format_summary(report))
    deadline = report.get("deadline")
    if deadline is not None:
        verdict = "OK" if deadline["compliant"] else "MISS"
        print(
            f"p99 deadline {deadline['limit_ms']:.0f}ms: {verdict} "
            f"(p99={deadline['p99_ms']:.1f}ms, "
            f"{deadline['within_pct']:.1f}% of requests within deadline)"
        )
    comparison = report.get("comparison")
    if comparison is not None:
        print(
            f"vs batch={comparison['batch_size']}: "
            f"{comparison['throughput_rps']} req/s -> "
            f"{comparison['speedup']}x speedup"
        )
    if args.report:
        path = Path(args.report)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"report written to {path}")
    return status
