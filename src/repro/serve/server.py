"""The alignment-search service and its transports.

:class:`AlignmentService` wires the pipeline together — admission
control -> dynamic batching -> sharded pool scan -> merged ranked
results — around one :class:`~repro.runtime.engine.ExperimentRuntime`
(the worker pool + in-process scan memo).  Transports are thin: a TCP
JSON-lines server (each line handled as its own task, so one slow
search never blocks a pipelining client) and a stdin/stdout mode for
shell-driven use.

``repro serve`` is the CLI entry point (:func:`main_serve`).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys
from dataclasses import dataclass, field

from repro.bio.synthetic import SyntheticDatabaseConfig, generate_database
from repro.runtime.engine import ExperimentRuntime
from repro.serve.admission import AdmissionController, QueueFull
from repro.serve.protocol import (
    ProtocolError,
    decode_line,
    decode_search,
    encode_response,
    error_response,
    shed_response,
    timeout_response,
)
from repro.serve.scheduler import BatchPolicy, DynamicBatcher
from repro.serve.shards import ShardSearchBackend
from repro.serve.telemetry import Telemetry

#: Database the service scans unless configured otherwise — the same
#: golden synthetic database the benchmark suite uses.
DEFAULT_DATABASE = SyntheticDatabaseConfig(
    sequence_count=30,
    family_count=2,
    family_size=3,
    seed=2006,
    mean_length=200.0,
)


@dataclass(frozen=True)
class ServeConfig:
    """Everything that shapes one service instance."""

    database: SyntheticDatabaseConfig = DEFAULT_DATABASE
    #: Packed database directory (``repro store pack-db``).  When set
    #: it replaces ``database``: workers mmap the snapshot instead of
    #: materializing a private copy, and startup skips generation
    #: entirely — this is the replicated tier's shared-memory path.
    database_path: str | None = None
    shard_count: int = 2
    jobs: int = 2
    queue_capacity: int = 64
    policy: BatchPolicy = field(default_factory=BatchPolicy)
    default_timeout: float | None = 30.0
    #: Expand the full BLAST neighborhood table in every worker at
    #: startup (~0.6 s per worker once) so query compiles on the hot
    #: path degrade to memo lookups.  The CLI turns this on; tests
    #: constructing configs directly keep fast startup by default.
    precompute: bool = False
    #: Replica name for telemetry labelling (``repro cluster`` sets it
    #: per replica process so Prometheus series and aggregated
    #: snapshots stay distinguishable); ``None`` means standalone.
    replica: str | None = None
    #: Seconds a drain waits for in-flight requests before giving up.
    drain_grace: float = 30.0


class AlignmentService:
    """Batching, sharding search service over one experiment runtime."""

    def __init__(
        self,
        config: ServeConfig = ServeConfig(),
        telemetry: Telemetry | None = None,
    ) -> None:
        self.config = config
        if telemetry is None:
            labels = (
                {"replica": config.replica} if config.replica else None
            )
            telemetry = Telemetry(labels=labels)
        self.telemetry = telemetry
        self.runtime: ExperimentRuntime | None = None
        self.admission: AdmissionController | None = None
        self.backend: ShardSearchBackend | None = None
        self.batcher: DynamicBatcher | None = None
        self._batch_task: asyncio.Task | None = None
        self.draining = False
        self._inflight = 0
        self.request_latency = self.telemetry.histogram(
            "serve.request.latency",
            "seconds from admission to response",
        )
        self.requests_total = self.telemetry.counter(
            "serve.requests.total", "search requests received"
        )
        self.inflight = self.telemetry.gauge(
            "serve.requests.inflight",
            "admitted requests not yet answered",
        )

    async def start(self) -> None:
        """Bring up the runtime pool and the batching loop."""
        config = self.config
        self.runtime = ExperimentRuntime(jobs=config.jobs)
        if config.database_path is not None:
            from repro.store.packdb import PackedDatabaseRef, open_packed

            # Cold start is a header read plus an mmap — no generation,
            # no per-replica heap copy of the residues.
            database_config = PackedDatabaseRef(config.database_path)
            database_name = open_packed(config.database_path).name
        else:
            database_config = config.database
            database_name = generate_database(config.database).name
        self.admission = AdmissionController(
            config.queue_capacity,
            self.telemetry,
            default_timeout=config.default_timeout,
        )
        self.backend = ShardSearchBackend(
            self.runtime,
            database_config,
            database_name,
            config.shard_count,
            self.telemetry,
        )
        self.batcher = DynamicBatcher(
            self.admission,
            self.backend.execute,
            config.policy,
            self.telemetry,
        )
        if config.precompute:
            # Run in a thread: the dispatch blocks on every worker
            # finishing its table expansion, and the loop stays free.
            await asyncio.get_running_loop().run_in_executor(
                None, self.runtime.precompute_words
            )
        self._batch_task = asyncio.get_running_loop().create_task(
            self.batcher.run()
        )

    async def stop(self) -> None:
        """Stop batching and shut the worker pool down."""
        if self._batch_task is not None:
            self._batch_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._batch_task
            self._batch_task = None
        if self.runtime is not None:
            self.runtime.close()
            self.runtime = None

    async def drain(self, grace: float | None = None) -> None:
        """Graceful drain: stop admitting, flush in-flight, shut down.

        New search submissions shed immediately (``reason=draining`` —
        the cluster router redispatches them to live replicas); batches
        already queued or executing run to completion.  Returns once
        every in-flight request has been answered or ``grace`` seconds
        elapsed, with the batching loop and worker pool stopped either
        way.  Idempotent: the SIGTERM handler and the cluster
        supervisor may both call it.
        """
        self.draining = True
        if grace is None:
            grace = self.config.drain_grace
        loop = asyncio.get_running_loop()
        deadline = loop.time() + max(0.0, grace)
        while self._inflight > 0 and loop.time() < deadline:
            await asyncio.sleep(0.005)
        await self.stop()

    async def __aenter__(self) -> "AlignmentService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- request handling ---------------------------------------------------

    async def handle_line(self, line: str) -> dict:
        """One wire line in, one response object out (never raises)."""
        try:
            data = decode_line(line)
        except ProtocolError as error:
            return error_response("", str(error))
        request_id = str(data.get("id", ""))
        operation = data.get("op", "search")
        if operation == "ping":
            return {"id": request_id, "status": "ok", "op": "ping"}
        if operation == "telemetry":
            return {
                "id": request_id,
                "status": "ok",
                "telemetry": self.telemetry.snapshot(
                    include_samples=bool(data.get("samples"))
                ),
            }
        if operation == "status":
            return {
                "id": request_id,
                "status": "ok",
                "serve": self.describe(),
            }
        if operation == "admin":
            return error_response(
                request_id,
                "admin operations need the cluster router, not a replica",
            )
        try:
            request = decode_search(data)
        except ProtocolError as error:
            return error_response(request_id, str(error))
        return await self.submit(request)

    async def submit(self, request) -> dict:
        """Admit one search request and await its response."""
        assert self.admission is not None, "service not started"
        self.requests_total.increment()
        if self.draining:
            # Drain semantics: refuse new work with a retryable signal
            # so a router can redispatch it, while in-flight requests
            # keep running to completion.
            return shed_response(request.request_id, reason="draining")
        loop = asyncio.get_running_loop()
        now = loop.time()
        try:
            pending = self.admission.submit(request, now)
        except QueueFull:
            return shed_response(request.request_id)
        self._inflight += 1
        self.inflight.set(self._inflight)
        expiry = None
        if pending.deadline is not None:
            # A timer handle is far cheaper than a wait_for task per
            # request; it resolves the future in place at the deadline
            # and the cancelled flag tells the pipeline to drop the
            # request wherever it is.
            expiry = loop.call_at(
                pending.deadline, _expire_pending, pending
            )
        try:
            response = await pending.future
        finally:
            if expiry is not None:
                expiry.cancel()
            self._inflight -= 1
            self.inflight.set(self._inflight)
        self.request_latency.observe(loop.time() - now)
        return response

    def describe(self) -> dict:
        """Liveness/load summary for the ``status`` op."""
        return {
            "replica": self.config.replica,
            "draining": self.draining,
            "inflight": self._inflight,
            "queue_depth": (
                self.admission.queue.qsize() if self.admission else 0
            ),
            "queue_capacity": self.config.queue_capacity,
            "shards": self.config.shard_count,
            "jobs": self.config.jobs,
        }


def _expire_pending(pending) -> None:
    """Deadline timer callback: answer ``timeout`` and mark cancelled."""
    if not pending.future.done():
        pending.cancelled = True
        pending.future.set_result(
            timeout_response(pending.request.request_id)
        )


# -- transports -------------------------------------------------------------


async def serve_tcp(
    service: AlignmentService, host: str, port: int
) -> asyncio.AbstractServer:
    """Start the TCP JSON-lines transport (caller owns the lifecycle)."""

    async def handle_connection(reader, writer):
        write_lock = asyncio.Lock()

        async def answer(line: str) -> None:
            response = await service.handle_line(line)
            payload = (encode_response(response) + "\n").encode()
            async with write_lock:
                writer.write(payload)
                with contextlib.suppress(ConnectionError):
                    await writer.drain()

        tasks = set()
        try:
            while True:
                raw = await reader.readline()
                if not raw:
                    break
                line = raw.decode().strip()
                if not line:
                    continue
                # Per-line tasks: a pipelining client gets responses
                # as they finish (matched by id), not in lockstep.
                task = asyncio.get_running_loop().create_task(
                    answer(line)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except asyncio.CancelledError:
            # server.close() cancels connection handlers at shutdown;
            # fall through to flush in-flight answers and close the
            # socket instead of dying mid-teardown with a traceback.
            pass
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            with contextlib.suppress(ConnectionError):
                writer.close()
                await writer.wait_closed()

    return await asyncio.start_server(handle_connection, host, port)


async def serve_stdio(service: AlignmentService) -> None:
    """Serve JSON lines from stdin to stdout until EOF."""
    loop = asyncio.get_running_loop()
    while True:
        raw = await loop.run_in_executor(None, sys.stdin.readline)
        if not raw:
            break
        line = raw.strip()
        if not line:
            continue
        response = await service.handle_line(line)
        print(encode_response(response), flush=True)


# -- CLI --------------------------------------------------------------------


def build_config(args) -> ServeConfig:
    """Translate parsed CLI flags into a :class:`ServeConfig`."""
    database = SyntheticDatabaseConfig(
        sequence_count=args.db_sequences,
        family_count=DEFAULT_DATABASE.family_count,
        family_size=DEFAULT_DATABASE.family_size,
        seed=args.db_seed,
        mean_length=DEFAULT_DATABASE.mean_length,
    )
    return ServeConfig(
        database=database,
        database_path=getattr(args, "db_path", None),
        shard_count=args.shards,
        jobs=args.jobs,
        queue_capacity=args.queue_capacity,
        policy=BatchPolicy(
            max_batch=args.batch_size, max_wait=args.max_wait
        ),
        default_timeout=args.timeout if args.timeout > 0 else None,
        precompute=args.precompute,
        replica=getattr(args, "replica_label", None),
        drain_grace=getattr(args, "drain_grace", 30.0),
    )


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """Service-shape flags shared by ``serve`` and ``loadgen``."""
    parser.add_argument(
        "--jobs", type=int, default=2,
        help="worker processes for the scan pool (default 2)",
    )
    parser.add_argument(
        "--shards", type=int, default=2,
        help="database shards per query (default 2)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=8,
        help="flush a batch at this many requests (default 8)",
    )
    parser.add_argument(
        "--max-wait", type=float, default=0.02,
        help="max seconds the first request waits for a batch (0.02)",
    )
    parser.add_argument(
        "--queue-capacity", type=int, default=64,
        help="admission queue bound; beyond it requests shed (64)",
    )
    parser.add_argument(
        "--timeout", type=float, default=30.0,
        help="default per-request deadline in seconds; 0 disables (30)",
    )
    parser.add_argument(
        "--db-sequences", type=int,
        default=DEFAULT_DATABASE.sequence_count,
        help="synthetic database size in sequences",
    )
    parser.add_argument(
        "--db-seed", type=int, default=DEFAULT_DATABASE.seed,
        help="synthetic database seed",
    )
    parser.add_argument(
        "--db-path", default=None, metavar="DIR",
        help="packed database directory (repro store pack-db); "
             "replaces --db-sequences/--db-seed and mmaps the "
             "snapshot instead of generating a private copy",
    )
    parser.add_argument(
        "--precompute", action=argparse.BooleanOptionalAction,
        default=True,
        help="expand the full BLAST word table in each worker at "
             "startup (adds ~0.6s/worker, makes query compiles cheap)",
    )
    parser.add_argument(
        "--replica-label", default=None, metavar="NAME",
        help="label telemetry with replica=NAME (cluster replicas)",
    )
    parser.add_argument(
        "--drain-grace", type=float, default=30.0,
        help="seconds a graceful drain (SIGTERM) waits for in-flight "
             "requests before shutting down anyway (default 30)",
    )


def main_serve(argv: list[str] | None = None) -> int:
    """``repro serve``: run the service on TCP or stdio."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Alignment-search service (JSON lines).",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="TCP bind host"
    )
    parser.add_argument(
        "--port", type=int, default=None,
        help="TCP port (0 picks a free one); omit for stdin/stdout",
    )
    add_serve_arguments(parser)
    args = parser.parse_args(argv)

    async def run() -> int:
        async with AlignmentService(build_config(args)) as service:
            if args.port is None:
                await serve_stdio(service)
                return 0
            # SIGTERM/SIGINT trigger a graceful drain, not loop
            # teardown: stop accepting, shed new submissions with a
            # retryable signal, flush in-flight batches, then exit.
            # The cluster's rolling restart and `repro cluster drain`
            # both depend on this path answering every admitted
            # request before the process dies.  The handlers go in
            # before the ready line, so a signal sent the moment it
            # appears still drains and shuts the worker pool down.
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError):
                    loop.add_signal_handler(signum, stop.set)
            server = await serve_tcp(service, args.host, args.port)
            address = server.sockets[0].getsockname()
            print(
                f"serving on {address[0]}:{address[1]} "
                f"(jobs={args.jobs}, shards={args.shards}, "
                f"batch={args.batch_size})",
                flush=True,
            )
            try:
                await stop.wait()
            finally:
                server.close()
                await server.wait_closed()
                await service.drain()
                for signum in (signal.SIGTERM, signal.SIGINT):
                    with contextlib.suppress(NotImplementedError):
                        loop.remove_signal_handler(signum)
            print("drained: in-flight flushed, exiting", flush=True)
            return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0
