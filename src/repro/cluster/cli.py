"""``repro cluster``: launch and operate a local replica cluster.

``up`` runs the supervisor in the foreground: it spawns N replica
``repro serve`` processes, serves the router on a TCP port, and writes
``cluster.json`` (router address + pid) into the state directory so
the other subcommands can find the cluster without arguments.  Every
other subcommand is a thin client over the router's ``admin``
operation::

    repro cluster up --replicas 3 --port 7720
    repro cluster status
    repro cluster scale 5
    repro cluster restart          # rolling, zero downtime
    repro cluster kill r1          # chaos: SIGKILL one replica
    repro cluster drain            # graceful cluster shutdown

SIGTERM/SIGINT to the ``up`` process triggers the same graceful drain
as ``repro cluster drain``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import signal
import sys
from pathlib import Path

from repro.cluster.router import RouterConfig
from repro.cluster.supervisor import ClusterConfig, ClusterSupervisor
from repro.serve.protocol import MAX_LINE_BYTES
from repro.serve.server import add_serve_arguments, serve_tcp

#: Where ``up`` records the router address for the other subcommands.
DEFAULT_STATE_DIR = ".repro-cluster"
STATE_FILE = "cluster.json"


def _serve_flags(args: argparse.Namespace) -> tuple[str, ...]:
    """Forward the service-shape flags to every replica process."""
    flags = [
        "--jobs", str(args.jobs),
        "--shards", str(args.shards),
        "--batch-size", str(args.batch_size),
        "--max-wait", str(args.max_wait),
        "--queue-capacity", str(args.queue_capacity),
        "--timeout", str(args.timeout),
        "--db-sequences", str(args.db_sequences),
        "--db-seed", str(args.db_seed),
        "--drain-grace", str(args.drain_grace),
        "--precompute" if args.precompute else "--no-precompute",
    ]
    if getattr(args, "db_path", None):
        flags += ["--db-path", args.db_path]
    return tuple(flags)


def write_state(state_dir: str, state: dict) -> Path:
    path = Path(state_dir)
    path.mkdir(parents=True, exist_ok=True)
    target = path / STATE_FILE
    target.write_text(json.dumps(state, indent=2) + "\n")
    return target


def read_state(state_dir: str) -> dict | None:
    target = Path(state_dir) / STATE_FILE
    if not target.exists():
        return None
    return json.loads(target.read_text())


def resolve_address(args: argparse.Namespace) -> tuple[str, int]:
    """Router address from ``--connect`` or the state file."""
    if getattr(args, "connect", None):
        host, _, port = args.connect.rpartition(":")
        return host or "127.0.0.1", int(port)
    state = read_state(args.state_dir)
    if state is None:
        raise SystemExit(
            f"no running cluster recorded in {args.state_dir!r}; "
            "start one with `repro cluster up` or pass --connect"
        )
    return state["host"], int(state["port"])


async def admin_request(
    host: str, port: int, payload: dict, timeout: float = 600.0
) -> dict:
    """One admin round-trip against the router."""
    reader, writer = await asyncio.open_connection(
        host, port, limit=MAX_LINE_BYTES
    )
    try:
        writer.write((json.dumps(payload) + "\n").encode())
        await writer.drain()
        raw = await asyncio.wait_for(reader.readline(), timeout)
    finally:
        writer.close()
        with contextlib.suppress(ConnectionError):
            await writer.wait_closed()
    if not raw:
        raise SystemExit("router closed the connection mid-request")
    return json.loads(raw)


def print_topology(cluster: dict) -> None:
    print(
        f"cluster: {cluster['healthy']}/{cluster['total']} healthy, "
        f"outstanding {cluster['outstanding']}/{cluster['capacity']}"
        + (", draining" if cluster.get("draining") else "")
    )
    for row in cluster.get("replicas", []):
        process = ""
        if "pid" in row:
            process = (
                f"  pid={row['pid']} alive={row['alive']}"
                f" restarts={row['restarts']} gen={row['generation']}"
            )
        print(
            f"  {row['name']:<4} {row['address']:<21} "
            f"{row['state']:<10} outstanding={row['outstanding']} "
            f"dispatched={row['dispatched']} shed={row['shed']}"
            + process
        )


async def run_up(args: argparse.Namespace) -> int:
    """Foreground supervisor: router + N replica processes."""
    config = ClusterConfig(
        replicas=args.replicas,
        host=args.host,
        port=args.port,
        serve_args=_serve_flags(args),
        router=RouterConfig(
            affinity=args.affinity,
            request_timeout=max(35.0, args.timeout + 5.0),
            response_cache_size=args.response_cache,
        ),
        drain_grace=args.drain_grace,
    )
    supervisor = ClusterSupervisor(config)
    # Handlers go in before any replica spawns: a SIGTERM/SIGINT during
    # start-up or right after the ready line drains the cluster instead
    # of killing this process and orphaning its replicas.  (Replicas
    # are spawned, not forked, so they do not inherit the handlers.)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    registered: list[signal.Signals] = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError, ValueError):
            loop.add_signal_handler(signum, stop.set)
            registered.append(signum)
    await supervisor.start()
    try:
        server = await serve_tcp(
            supervisor.router, args.host, args.port
        )
    except OSError:
        await supervisor.stop()
        raise
    address = server.sockets[0].getsockname()
    state_path = write_state(args.state_dir, {
        "host": address[0],
        "port": address[1],
        "pid": os.getpid(),
        "replicas": args.replicas,
    })
    print(
        f"cluster up: router on {address[0]}:{address[1]}, "
        f"{args.replicas} replicas "
        f"(jobs={args.jobs}, shards={args.shards}, "
        f"queue={args.queue_capacity}); state in {state_path}",
        flush=True,
    )
    try:
        stop_wait = loop.create_task(stop.wait())
        shutdown_wait = loop.create_task(supervisor.shutdown.wait())
        await asyncio.wait(
            (stop_wait, shutdown_wait),
            return_when=asyncio.FIRST_COMPLETED,
        )
        for task in (stop_wait, shutdown_wait):
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
        if stop.is_set() and not supervisor.shutdown.is_set():
            print("draining cluster (signal)...", flush=True)
            await supervisor.drain()
    finally:
        for signum in registered:
            loop.remove_signal_handler(signum)
        server.close()
        await server.wait_closed()
        await supervisor.stop()
        with contextlib.suppress(OSError):
            state_path.unlink()
    print("cluster down: replicas drained and stopped", flush=True)
    return 0


async def run_admin(args: argparse.Namespace, payload: dict) -> int:
    host, port = resolve_address(args)
    response = await admin_request(
        host, port, {"op": "admin", "id": "cli", **payload},
        timeout=args.wait,
    )
    if response.get("status") != "ok":
        print(
            f"error: {response.get('error', response)}",
            file=sys.stderr,
        )
        return 1
    if "cluster" in response:
        print_topology(response["cluster"])
    else:
        body = {
            key: value for key, value in response.items()
            if key not in ("id", "status")
        }
        print(json.dumps(body, sort_keys=True))
    return 0


def _add_client_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--state-dir", default=DEFAULT_STATE_DIR,
        help="where `cluster up` recorded the router address",
    )
    parser.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="router address (overrides the state file)",
    )
    parser.add_argument(
        "--wait", type=float, default=600.0,
        help="seconds to wait for the admin action (default 600)",
    )


def main_cluster(argv: list[str] | None = None) -> int:
    """``repro cluster``: multi-replica serving topology."""
    parser = argparse.ArgumentParser(
        prog="repro cluster",
        description="Replicated alignment-search serving: router + N "
        "replica servers with health checks, graceful drain, and "
        "rolling restarts (see docs/cluster.md).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    up = commands.add_parser(
        "up", help="launch router + replicas in the foreground"
    )
    up.add_argument(
        "--replicas", type=int, default=3,
        help="replica server processes (default 3)",
    )
    up.add_argument("--host", default="127.0.0.1")
    up.add_argument(
        "--port", type=int, default=0,
        help="router TCP port (default 0: pick a free one)",
    )
    up.add_argument(
        "--state-dir", default=DEFAULT_STATE_DIR,
        help="directory for cluster.json (default .repro-cluster)",
    )
    up.add_argument(
        "--affinity", action=argparse.BooleanOptionalAction,
        default=True,
        help="consistent-hash affinity for repeat queries (default on)",
    )
    up.add_argument(
        "--response-cache", type=int, default=256, metavar="N",
        help="router-side LRU of completed search responses; repeats "
        "are answered without touching a replica (default 256, 0 off)",
    )
    add_serve_arguments(up)

    status = commands.add_parser(
        "status", help="topology, health, and per-replica load"
    )
    _add_client_arguments(status)

    scale = commands.add_parser(
        "scale", help="grow or shrink the replica set"
    )
    scale.add_argument("replicas", type=int)
    _add_client_arguments(scale)

    drain = commands.add_parser(
        "drain", help="graceful cluster shutdown (finish in-flight)"
    )
    _add_client_arguments(drain)

    restart = commands.add_parser(
        "restart", help="rolling restart, one replica at a time"
    )
    _add_client_arguments(restart)

    kill = commands.add_parser(
        "kill", help="SIGKILL one replica (chaos testing)"
    )
    kill.add_argument("replica", help="replica name, e.g. r1")
    _add_client_arguments(kill)

    args = parser.parse_args(argv)
    if args.command == "up":
        return asyncio.run(run_up(args))
    payloads = {
        "status": {"action": "status"},
        "scale": {
            "action": "scale",
            "replicas": getattr(args, "replicas", 0),
        },
        "drain": {"action": "drain"},
        "restart": {"action": "restart"},
        "kill": {
            "action": "kill",
            "replica": getattr(args, "replica", ""),
        },
    }
    return asyncio.run(run_admin(args, payloads[args.command]))
