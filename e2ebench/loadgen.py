"""The benchmark's own open-loop load generator.

Requests go out on a fixed schedule whatever the system does: request
``i`` of a step at rate ``r`` is *due* at ``start + i / r``.  Latency is
measured from that due time, so a stall delays every later request's
clock too, and the generator records how late it actually sent each
request (its own lateness, a check on the benchmark rather than the
system).

Responses are read as raw bytes and split on newlines by hand, so a
response line of any length arrives whole; asyncio's ``readline`` has a
64 KiB limit that large search responses exceed.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import re
import time

#: Connections the load is spread over (round robin).
CONNECTIONS = 2

#: Responses open with their id and status (the server builds the dict
#: in that order); reading just that much keeps the generator's own CPU
#: use small next to the service it measures.
_HEAD = re.compile(rb'^\{"id":\s*"((?:[^"\\]|\\.)*)",\s*"status":\s*"([a-z]+)"')


class _Connection:
    """One TCP connection carrying pipelined JSON-lines requests."""

    def __init__(self, reader, writer, records: dict[str, dict]) -> None:
        self.reader = reader
        self.writer = writer
        self.records = records
        self.task: asyncio.Task | None = None

    async def read_responses(self, keep: set[str]) -> None:
        buffer = bytearray()
        while True:
            chunk = await self.reader.read(1 << 16)
            if not chunk:
                return
            buffer += chunk
            while True:
                end = buffer.find(b"\n")
                if end < 0:
                    break
                line = bytes(buffer[:end])
                del buffer[:end + 1]
                self._complete(line, keep)

    def _complete(self, line: bytes, keep: set[str]) -> None:
        done = time.monotonic()
        head = _HEAD.match(line)
        if head is not None:
            identifier, status = head.group(1).decode(), head.group(2).decode()
        else:
            try:
                response = json.loads(line)
            except ValueError:
                return
            identifier = str(response.get("id", ""))
            status = response.get("status")
        record = self.records.get(identifier)
        if record is None or record["done"] is not None:
            return
        record["done"] = done
        record["status"] = status
        record["ok"] = status == "ok"
        if record["id"] in keep:
            record["line"] = line


async def request_once(host: str, port: int, payload: dict,
                       timeout: float = 30.0) -> dict:
    """One request on its own connection (telemetry, status, ping)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write((json.dumps(payload) + "\n").encode())
        await writer.drain()
        buffer = bytearray()
        while b"\n" not in buffer:
            chunk = await asyncio.wait_for(reader.read(1 << 16), timeout)
            if not chunk:
                raise ConnectionError("connection closed before a response")
            buffer += chunk
        return json.loads(bytes(buffer[:buffer.index(b"\n")]))
    finally:
        writer.close()
        with contextlib.suppress(ConnectionError):
            await writer.wait_closed()


async def open_loop(
    host: str,
    port: int,
    payloads: list[dict],
    rate: float,
    *,
    keep: set[str] | None = None,
    grace: float = 10.0,
) -> list[dict]:
    """Send ``payloads`` at ``rate`` per second; one record per request.

    Each record has ``due``, ``sent`` and ``done`` (monotonic seconds;
    ``done`` is None when no answer came within ``grace`` seconds of
    the last due time), ``status``, ``ok``, and for ids in ``keep`` the
    raw response ``line``.
    """
    keep = keep or set()
    records: dict[str, dict] = {}
    links: list[_Connection] = []
    try:
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection(host, port)
            link = _Connection(reader, writer, records)
            link.task = asyncio.get_running_loop().create_task(
                link.read_responses(keep)
            )
            links.append(link)
        start = time.monotonic() + 0.05
        for index, payload in enumerate(payloads):
            due = start + index / rate
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            identifier = str(payload["id"])
            records[identifier] = {
                "id": identifier, "index": index,
                "algorithm": payload.get("algorithm"),
                "due": due, "sent": time.monotonic(), "done": None,
                "status": None, "ok": False,
            }
            link = links[index % len(links)]
            link.writer.write((json.dumps(payload) + "\n").encode())
            await link.writer.drain()
        deadline = start + len(payloads) / rate + grace
        while time.monotonic() < deadline and any(
            record["done"] is None for record in records.values()
        ):
            await asyncio.sleep(0.01)
    finally:
        for link in links:
            link.writer.close()
            with contextlib.suppress(ConnectionError):
                await link.writer.wait_closed()
            if link.task is not None:
                link.task.cancel()
                with contextlib.suppress(asyncio.CancelledError, ConnectionError):
                    await link.task
    ordered = sorted(records.values(), key=lambda record: record["index"])
    for record in ordered:
        if record["done"] is None:
            record["done"] = math.inf
            record["ok"] = False
            record["status"] = "unanswered"
    return ordered
