"""Router-side replica handles: one connection, one health state.

A :class:`ReplicaHandle` owns the router's TCP connection to one
replica server and the bookkeeping the dispatch policy reads: how many
requests are outstanding there, whether the replica recently shed
(saturation backoff), and its lifecycle state.

Wire ids are *rewritten* on the way through: many clients may reuse
the same request ``id`` concurrently, so the router assigns each
dispatch a private monotonically-increasing id, routes the replica's
response back through it, and restores the client's original id before
answering.  A dropped connection fails every outstanding future with
:class:`ReplicaGone` — the router's dispatch loop catches that and
redispatches the in-flight requests to surviving replicas, which is
what makes a mid-run replica kill invisible to clients.
"""

from __future__ import annotations

import asyncio
import contextlib
import json

from repro.serve.protocol import MAX_LINE_BYTES, encode_response

#: Lifecycle states a handle moves through.
STATE_CONNECTING = "connecting"
STATE_HEALTHY = "healthy"
STATE_DRAINING = "draining"
STATE_EJECTED = "ejected"
STATE_STOPPED = "stopped"


class ReplicaGone(ConnectionError):
    """The replica's connection dropped with requests outstanding."""


class ReplicaHandle:
    """The router's view of one replica server."""

    def __init__(
        self,
        name: str,
        host: str,
        port: int,
        on_disconnect=None,
    ) -> None:
        self.name = name
        self.host = host
        self.port = port
        self.state = STATE_CONNECTING
        self.on_disconnect = on_disconnect
        self.queue_capacity: int | None = None
        #: Soft saturation hint: after a shed response the dispatch
        #: policy avoids this replica until the backoff passes, unless
        #: every alternative is saturated too.
        self.saturated_until = 0.0
        self.dispatched_total = 0
        self.shed_total = 0
        self._reader = None
        self._writer = None
        self._reader_task: asyncio.Task | None = None
        self._pending: dict[str, asyncio.Future] = {}
        self._sequence = 0
        self._drained = asyncio.Event()
        self._drained.set()

    # -- connection lifecycle ------------------------------------------

    async def connect(self) -> None:
        """Open the connection and learn the replica's capacity."""
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=MAX_LINE_BYTES
        )
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_responses()
        )
        status = await self.request({"op": "status"}, timeout=5.0)
        serve = status.get("serve", {})
        self.queue_capacity = serve.get("queue_capacity")
        self.state = STATE_HEALTHY

    async def close(self) -> None:
        """Tear the connection down (fails anything outstanding)."""
        self.state = STATE_STOPPED
        if self._reader_task is not None:
            self._reader_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._reader_task
            self._reader_task = None
        if self._writer is not None:
            with contextlib.suppress(ConnectionError):
                self._writer.close()
                await self._writer.wait_closed()
            self._writer = None
        self._fail_pending()

    @property
    def connected(self) -> bool:
        return self._writer is not None

    @property
    def outstanding(self) -> int:
        """Requests dispatched here and not yet answered."""
        return len(self._pending)

    async def _read_responses(self) -> None:
        try:
            while True:
                raw = await self._reader.readline()
                if not raw:
                    break
                response = json.loads(raw)
                future = self._pending.pop(
                    str(response.get("id", "")), None
                )
                if future is not None and not future.done():
                    future.set_result(response)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._writer = None
            self._fail_pending()
            if self.state not in (STATE_STOPPED, STATE_DRAINING):
                self.state = STATE_EJECTED
            if self.on_disconnect is not None:
                self.on_disconnect(self)

    def _fail_pending(self) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(
                    ReplicaGone(f"replica {self.name} disconnected")
                )
        self._drained.set()

    # -- requests ------------------------------------------------------

    async def request(
        self, payload: dict, timeout: float | None = None
    ) -> dict:
        """Send one payload (id rewritten) and await its response.

        Raises :class:`ReplicaGone` on connection loss and
        ``asyncio.TimeoutError`` if the replica holds the request
        longer than ``timeout`` — both are retryable upstream.
        """
        if self._writer is None:
            raise ReplicaGone(f"replica {self.name} not connected")
        self._sequence += 1
        internal_id = f"x{self._sequence}"
        wire = dict(payload)
        wire["id"] = internal_id
        future = asyncio.get_running_loop().create_future()
        self._pending[internal_id] = future
        self._drained.clear()
        try:
            self._writer.write(
                (encode_response(wire) + "\n").encode()
            )
            await self._writer.drain()
            if timeout is None:
                return await future
            return await asyncio.wait_for(future, timeout)
        except ConnectionError as error:
            raise ReplicaGone(str(error)) from None
        finally:
            self._pending.pop(internal_id, None)
            if not self._pending:
                self._drained.set()

    async def wait_drained(self, grace: float) -> bool:
        """Wait until nothing is outstanding (True) or grace expires."""
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(self._drained.wait(), grace)
        return self.outstanding == 0

    def describe(self) -> dict:
        """Topology-status row for this replica."""
        return {
            "name": self.name,
            "address": f"{self.host}:{self.port}",
            "state": self.state,
            "outstanding": self.outstanding,
            "dispatched": self.dispatched_total,
            "shed": self.shed_total,
            "queue_capacity": self.queue_capacity,
        }
