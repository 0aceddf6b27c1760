"""Tests for the ``repro.cluster`` multi-replica serving tier.

Three layers:

* pure logic — the consistent-hash ring's determinism and minimal
  remapping, affinity keys;
* router policy over *stub* replicas (in-process protocol servers with
  scripted behavior) — id rewriting, least-loaded dispatch, busy-signal
  redispatch, shed-only-when-all-saturated backpressure, failover on a
  dropped connection, ejection/rejoin, drain semantics, and telemetry
  aggregation;
* the real thing — a router over two in-process
  :class:`AlignmentService` servers proving byte-identity with the
  single-server path, and a process-level supervisor chaos run
  (SIGKILL one replica mid-load, zero failed requests, rolling
  restart, graceful drain).
"""

import asyncio
import contextlib
import json

from repro.bio.synthetic import SyntheticDatabaseConfig, generate_database
from repro.cluster.hashing import HashRing, affinity_key
from repro.cluster.replicas import (
    STATE_DRAINING,
    STATE_EJECTED,
    STATE_HEALTHY,
)
from repro.cluster.router import ClusterRouter, RouterConfig
from repro.cluster.supervisor import ClusterConfig, ClusterSupervisor
from repro.serve.protocol import shed_response
from repro.serve.scheduler import BatchPolicy
from repro.serve.server import AlignmentService, ServeConfig, serve_tcp
from repro.serve.telemetry import Telemetry, merge_snapshots

#: Same shape as test_serve's small database: fast, real hits.
SMALL_DATABASE = SyntheticDatabaseConfig(
    sequence_count=10,
    family_count=2,
    family_size=2,
    seed=91,
    mean_length=120.0,
)


def small_config(**overrides) -> ServeConfig:
    defaults = dict(
        database=SMALL_DATABASE,
        shard_count=2,
        jobs=1,
        queue_capacity=32,
        policy=BatchPolicy(max_batch=4, max_wait=0.005),
        default_timeout=30.0,
        precompute=False,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


def search_payload(request_id: str, text: str, query_id: str = "q") -> dict:
    return {
        "op": "search",
        "id": request_id,
        "query_id": query_id,
        "query": text,
        "algorithm": "blast",
    }


QUERY = "ACDEFGHIKLMNPQRSTVWY"


# -- hashing ----------------------------------------------------------------


class TestHashRing:
    def test_lookup_is_deterministic(self):
        first, second = HashRing(), HashRing()
        for name in ("r0", "r1", "r2"):
            first.add(name)
            second.add(name)
        keys = [f"key-{i}" for i in range(200)]
        assert [first.lookup(k) for k in keys] == [
            second.lookup(k) for k in keys
        ]

    def test_lookup_covers_all_members(self):
        ring = HashRing()
        for name in ("r0", "r1", "r2"):
            ring.add(name)
        owners = {ring.lookup(f"key-{i}") for i in range(500)}
        assert owners == {"r0", "r1", "r2"}

    def test_removal_remaps_only_departed_keys(self):
        ring = HashRing()
        for name in ("r0", "r1", "r2"):
            ring.add(name)
        keys = [f"key-{i}" for i in range(500)]
        before = {key: ring.lookup(key) for key in keys}
        ring.remove("r1")
        for key in keys:
            after = ring.lookup(key)
            if before[key] != "r1":
                # Consistent hashing's contract: keys not owned by
                # the departed replica keep their owner (warm caches).
                assert after == before[key]
            else:
                assert after in ("r0", "r2")

    def test_add_and_remove_idempotent(self):
        ring = HashRing(vnodes=8)
        ring.add("r0")
        ring.add("r0")
        assert ring.members() == {"r0"}
        ring.remove("r0")
        ring.remove("r0")
        assert ring.lookup("anything") is None

    def test_affinity_key_tracks_scoring_knobs(self):
        base = search_payload("1", QUERY)
        assert affinity_key(base) == affinity_key(
            search_payload("2", QUERY)
        )
        assert affinity_key(base) != affinity_key(
            {**base, "gap_open": 5}
        )
        assert affinity_key(base) != affinity_key(
            {**base, "query": QUERY[:-1]}
        )


# -- stub replicas ----------------------------------------------------------


class StubReplica:
    """In-process protocol server with scripted search behavior."""

    def __init__(self, name, responder=None, queue_capacity=4):
        self.name = name
        self.responder = responder
        self.queue_capacity = queue_capacity
        self.telemetry: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        self.received: list[dict] = []
        self.server = None
        self.port = None
        self._writers: set = set()

    async def start(self, port: int = 0) -> "StubReplica":
        self.server = await asyncio.start_server(
            self._handle, "127.0.0.1", port
        )
        self.port = self.server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()
            self.server = None

    async def kill(self) -> None:
        """Drop the listener *and* every established connection."""
        await self.stop()
        for writer in list(self._writers):
            with contextlib.suppress(ConnectionError):
                writer.close()
        self._writers.clear()

    async def _handle(self, reader, writer):
        self._writers.add(writer)
        try:
            while True:
                raw = await reader.readline()
                if not raw:
                    break
                data = json.loads(raw)
                self.received.append(data)
                response = await self._respond(data, writer)
                if response is None:
                    continue
                writer.write((json.dumps(response) + "\n").encode())
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._writers.discard(writer)
            with contextlib.suppress(ConnectionError):
                writer.close()

    async def _respond(self, data, writer):
        operation = data.get("op", "search")
        request_id = str(data.get("id", ""))
        if operation == "ping":
            return {"id": request_id, "status": "ok"}
        if operation == "status":
            return {
                "id": request_id,
                "status": "ok",
                "serve": {"queue_capacity": self.queue_capacity},
            }
        if operation == "telemetry":
            return {
                "id": request_id,
                "status": "ok",
                "telemetry": self.telemetry,
            }
        if self.responder is not None:
            return await self.responder(self, data, writer)
        return {
            "id": request_id,
            "status": "ok",
            "result": {"echo": data.get("query"), "by": self.name},
        }


def quick_router(**overrides) -> ClusterRouter:
    defaults = dict(saturation_backoff=0.01, health_timeout=0.5)
    defaults.update(overrides)
    return ClusterRouter(RouterConfig(**defaults))


async def routed(stubs, router=None):
    router = router or quick_router()
    for stub in stubs:
        await router.add_replica(stub.name, "127.0.0.1", stub.port)
    return router


# -- router policy over stubs ----------------------------------------------


class TestRouterDispatch:
    def test_ids_rewritten_on_wire_restored_to_client(self):
        async def main():
            stub = await StubReplica("a").start()
            router = await routed([stub])
            try:
                response = await router.dispatch_search(
                    search_payload("client-7", QUERY)
                )
                assert response["status"] == "ok"
                assert response["id"] == "client-7"
                assert response["replica"] == "a"
                wire = [
                    d for d in stub.received
                    if d.get("op") == "search"
                ]
                # The wire id is router-private, so concurrent clients
                # reusing ids cannot collide inside one replica link.
                assert wire[0]["id"].startswith("x")
                assert wire[0]["id"] != "client-7"
            finally:
                await router.stop()
                await stub.stop()

        asyncio.run(main())

    def test_least_loaded_wins_when_no_affinity(self):
        async def main():
            release = asyncio.Event()

            async def holding(stub, data, writer):
                await release.wait()
                return {
                    "id": data["id"], "status": "ok", "result": {}
                }

            busy = await StubReplica("a", responder=holding).start()
            idle = await StubReplica("b").start()
            router = await routed(
                [busy, idle], quick_router(affinity=False)
            )
            try:
                loop = asyncio.get_running_loop()
                held = loop.create_task(
                    router.dispatch_search(search_payload("h", QUERY))
                )
                await asyncio.sleep(0.02)
                # "a" has 1 outstanding, "b" has 0: next goes to "b".
                response = await router.dispatch_search(
                    search_payload("n", QUERY, query_id="other")
                )
                assert response["replica"] == "b"
                release.set()
                assert (await held)["status"] == "ok"
            finally:
                await router.stop()
                await busy.stop()
                await idle.stop()

        asyncio.run(main())

    def test_affinity_prefers_hash_owner(self):
        async def main():
            stubs = [
                await StubReplica(name).start() for name in ("a", "b")
            ]
            router = await routed(stubs)
            try:
                payload = search_payload("1", QUERY)
                owner = router.ring.lookup(affinity_key(payload))
                for index in range(3):
                    response = await router.dispatch_search(
                        search_payload(str(index), QUERY)
                    )
                    assert response["replica"] == owner
            finally:
                await router.stop()
                for stub in stubs:
                    await stub.stop()

        asyncio.run(main())

    def test_busy_signal_redispatches_elsewhere(self):
        async def main():
            async def shedding(stub, data, writer):
                return shed_response(str(data.get("id", "")))

            sheds = await StubReplica("a", responder=shedding).start()
            works = await StubReplica("b").start()
            router = await routed(
                [sheds, works], quick_router(affinity=False)
            )
            try:
                # Force first attempt at "a" (name tiebreak), which
                # sheds; the router must retry on "b", not the client.
                response = await router.dispatch_search(
                    search_payload("r", QUERY)
                )
                assert response["status"] == "ok"
                assert response["replica"] == "b"
                assert router.redispatches.value >= 1
                assert router.replicas["a"].shed_total == 1
            finally:
                await router.stop()
                await sheds.stop()
                await works.stop()

        asyncio.run(main())

    def test_sheds_only_when_every_replica_saturated(self):
        async def main():
            async def shedding(stub, data, writer):
                return shed_response(str(data.get("id", "")))

            stubs = [
                await StubReplica(n, responder=shedding).start()
                for n in ("a", "b")
            ]
            router = await routed(stubs)
            try:
                response = await router.dispatch_search(
                    search_payload("r", QUERY)
                )
                assert response["status"] == "shed"
                assert response["reason"] == "saturated"
                assert router.shed.value == 1
                # Both replicas were actually tried before giving up.
                tried = {
                    s.name for s in stubs
                    if any(
                        d.get("op") == "search" for d in s.received
                    )
                }
                assert tried == {"a", "b"}
            finally:
                await router.stop()
                for stub in stubs:
                    await stub.stop()

        asyncio.run(main())

    def test_door_shed_at_summed_admission_capacity(self):
        async def main():
            release = asyncio.Event()

            async def holding(stub, data, writer):
                await release.wait()
                return {
                    "id": data["id"], "status": "ok", "result": {}
                }

            stubs = [
                await StubReplica(
                    n, responder=holding, queue_capacity=1
                ).start()
                for n in ("a", "b")
            ]
            router = await routed(stubs, quick_router(affinity=False))
            try:
                assert router.total_capacity() == 2
                loop = asyncio.get_running_loop()
                held = [
                    loop.create_task(router.dispatch_search(
                        search_payload(f"h{i}", QUERY, query_id=f"q{i}")
                    ))
                    for i in range(2)
                ]
                await asyncio.sleep(0.02)
                assert router.total_outstanding() == 2
                # Cluster-wide outstanding == summed replica admission
                # capacity: backpressure propagates to the door.
                response = await router.dispatch_search(
                    search_payload("over", QUERY)
                )
                assert response["status"] == "shed"
                assert response["reason"] == "saturated"
                release.set()
                for result in await asyncio.gather(*held):
                    assert result["status"] == "ok"
            finally:
                await router.stop()
                for stub in stubs:
                    await stub.stop()

        asyncio.run(main())

    def test_failover_redispatches_in_flight_work(self):
        async def main():
            async def dying(stub, data, writer):
                await stub.kill()
                return None

            doomed = await StubReplica("a", responder=dying).start()
            backup = await StubReplica("b").start()
            router = await routed(
                [doomed, backup], quick_router(affinity=False)
            )
            try:
                # "a" wins the tiebreak, accepts the request, and dies
                # with it in flight; the client still gets an answer.
                response = await router.dispatch_search(
                    search_payload("c", QUERY)
                )
                assert response["status"] == "ok"
                assert response["replica"] == "b"
                assert router.failovers.value == 1
                assert router.replicas["a"].state == STATE_EJECTED
            finally:
                await router.stop()
                await backup.stop()

        asyncio.run(main())

    def test_draining_cluster_sheds_with_reason(self):
        async def main():
            stub = await StubReplica("a").start()
            router = await routed([stub])
            try:
                router.draining = True
                response = await router.dispatch_search(
                    search_payload("r", QUERY)
                )
                assert response["status"] == "shed"
                assert response["reason"] == "cluster draining"
            finally:
                await router.stop()
                await stub.stop()

        asyncio.run(main())

    def test_draining_replica_excluded_then_readmitted(self):
        async def main():
            stubs = [
                await StubReplica(n).start() for n in ("a", "b")
            ]
            router = await routed(stubs)
            try:
                router.set_draining("a")
                assert router.replicas["a"].state == STATE_DRAINING
                assert "a" not in router.ring.members()
                for index in range(3):
                    response = await router.dispatch_search(
                        search_payload(str(index), QUERY)
                    )
                    assert response["replica"] == "b"
                router.set_draining("a", False)
                assert router.replicas["a"].state == STATE_HEALTHY
                assert "a" in router.ring.members()
            finally:
                await router.stop()
                for stub in stubs:
                    await stub.stop()

        asyncio.run(main())


class TestRouterHealth:
    def test_ejection_after_consecutive_failures_and_rejoin(self):
        async def main():
            stub = await StubReplica("a").start()
            port = stub.port
            router = await routed(
                [stub], quick_router(health_failures=2)
            )
            try:
                await stub.kill()
                await router.check_health()
                await router.check_health()
                replica = router.replicas["a"]
                assert replica.state == STATE_EJECTED
                assert "a" not in router.ring.members()
                assert router.ejections.value >= 1
                # Replica comes back on the same address: next probe
                # round reconnects and readmits it.
                stub = await StubReplica("a").start(port)
                await router.check_health()
                assert replica.state == STATE_HEALTHY
                assert "a" in router.ring.members()
                assert router.rejoins.value == 1
                response = await router.dispatch_search(
                    search_payload("r", QUERY)
                )
                assert response["status"] == "ok"
            finally:
                await router.stop()
                await stub.stop()

        asyncio.run(main())


class TestLargeResponses:
    """Response lines longer than asyncio's default 64 KiB line limit.

    Default-``best_count`` BLAST responses over a few thousand database
    sequences run to ~80 KB; a reader with the default limit fails on
    them and the router ejects the replica that sent them.
    """

    BLOB = "A" * (200 * 1024)

    @staticmethod
    async def large_responder(stub, data, writer):
        return {
            "id": str(data.get("id", "")),
            "status": "ok",
            "result": {"blob": TestLargeResponses.BLOB, "by": stub.name},
        }

    def test_router_relays_large_responses_without_ejection(self):
        async def main():
            stubs = [
                await StubReplica(name, self.large_responder).start()
                for name in ("a", "b")
            ]
            router = await routed(stubs)
            try:
                for index in range(4):
                    response = await asyncio.wait_for(
                        router.dispatch_search(
                            search_payload(f"r{index}", QUERY[index:])
                        ),
                        timeout=10,
                    )
                    assert response["status"] == "ok"
                    assert response["result"]["blob"] == self.BLOB
                assert router.ejections.value == 0
                assert all(
                    replica.state == STATE_HEALTHY
                    for replica in router.replicas.values()
                )
            finally:
                await router.stop()
                for stub in stubs:
                    await stub.stop()

        asyncio.run(main())

    def test_loadgen_tcp_client_reads_large_responses(self):
        from repro.serve.loadgen import TcpClient

        async def main():
            stub = await StubReplica("a", self.large_responder).start()
            client = await TcpClient.connect("127.0.0.1", stub.port)
            try:
                response = await asyncio.wait_for(
                    client.request(search_payload("r", QUERY)), timeout=10
                )
                assert response["status"] == "ok"
                assert response["result"]["blob"] == self.BLOB
            finally:
                await client.close()
                await stub.stop()

        asyncio.run(main())


class TestRouterTelemetry:
    def test_aggregate_pools_histogram_samples(self):
        async def main():
            first = await StubReplica("a").start()
            second = await StubReplica("b").start()
            first.telemetry = {
                "labels": {"replica": "a"},
                "counters": {"serve.requests.admitted": 3},
                "gauges": {"serve.queue.depth": 1},
                "histograms": {
                    "serve.request.latency": {
                        "count": 2, "total": 0.3, "mean": 0.15,
                        "samples": [0.1, 0.2],
                    }
                },
            }
            second.telemetry = {
                "labels": {"replica": "b"},
                "counters": {"serve.requests.admitted": 5},
                "gauges": {"serve.queue.depth": 2},
                "histograms": {
                    "serve.request.latency": {
                        "count": 2, "total": 0.7, "mean": 0.35,
                        "samples": [0.3, 0.4],
                    }
                },
            }
            router = await routed([first, second])
            try:
                report = await router.aggregate_telemetry()
                aggregate = report["aggregate"]
                admitted = aggregate["counters"][
                    "serve.requests.admitted"
                ]
                assert admitted == 8
                assert aggregate["gauges"]["serve.queue.depth"] == 3
                latency = aggregate["histograms"][
                    "serve.request.latency"
                ]
                assert latency["count"] == 4
                assert latency["total"] == 1.0
                # Percentiles come from the *pooled* windows, not an
                # average of per-replica percentiles.
                assert latency["p50"] == 0.2
                assert latency["p99"] == 0.4
                # Per-replica views stay lean: samples are stripped.
                for view in report["replicas"].values():
                    for shaped in view["histograms"].values():
                        assert "samples" not in shaped
                assert "router" in report
            finally:
                await router.stop()
                await first.stop()
                await second.stop()

        asyncio.run(main())

    def test_merge_snapshots_round_trips_real_registries(self):
        replicas = []
        for name, observations in (
            ("r0", (0.1, 0.2)), ("r1", (0.3, 0.4)),
        ):
            registry = Telemetry(labels={"replica": name})
            registry.counter("serve.requests.admitted").increment(2)
            histogram = registry.histogram("serve.request.latency")
            for value in observations:
                histogram.observe(value)
            replicas.append(registry.snapshot(include_samples=True))
        merged = merge_snapshots(replicas)
        assert merged["counters"]["serve.requests.admitted"] == 4
        latency = merged["histograms"]["serve.request.latency"]
        assert latency["count"] == 4
        assert latency["p50"] == 0.2


class TestReplicaLabels:
    def test_prometheus_export_carries_replica_label(self):
        registry = Telemetry(labels={"replica": "r0"})
        registry.counter("serve.requests.admitted", "admitted").increment()
        exported = registry.to_prometheus()
        assert (
            'repro_serve_requests_admitted{replica="r0"} 1' in exported
        )

    def test_router_per_replica_counter_labelled(self):
        registry = Telemetry()
        registry.counter(
            "router.dispatched", labels={"replica": "r0"}
        ).increment(2)
        registry.counter(
            "router.dispatched", labels={"replica": "r1"}
        ).increment(3)
        exported = registry.to_prometheus()
        assert 'repro_router_dispatched{replica="r0"} 2' in exported
        assert 'repro_router_dispatched{replica="r1"} 3' in exported


# -- router-side response cache ---------------------------------------------


class TestRouterResponseCache:
    def test_repeat_query_answered_from_cache(self):
        async def main():
            stub = await StubReplica("a").start()
            router = await routed([stub])
            try:
                first = await router.dispatch_search(
                    search_payload("c1", QUERY)
                )
                assert first["status"] == "ok"
                assert "cached" not in first
                second = await router.dispatch_search(
                    search_payload("c2", QUERY)
                )
                assert second["cached"] is True
                assert second["id"] == "c2"
                assert second["result"] == first["result"]
                # The repeat never reached a replica.
                wire = [
                    d for d in stub.received if d.get("op") == "search"
                ]
                assert len(wire) == 1
                assert router.cache_hits.value == 1
                assert router.cache_misses.value == 1
            finally:
                await router.stop()
                await stub.stop()

        asyncio.run(main())

    def test_no_cache_flag_bypasses(self):
        async def main():
            stub = await StubReplica("a").start()
            router = await routed([stub])
            try:
                for request_id in ("n1", "n2"):
                    payload = search_payload(request_id, QUERY)
                    payload["no_cache"] = True
                    response = await router.dispatch_search(payload)
                    assert response["status"] == "ok"
                    assert "cached" not in response
                wire = [
                    d for d in stub.received if d.get("op") == "search"
                ]
                assert len(wire) == 2
                assert router.cache_hits.value == 0
                assert router.cache_misses.value == 0
            finally:
                await router.stop()
                await stub.stop()

        asyncio.run(main())

    def test_zero_size_disables_cache(self):
        async def main():
            stub = await StubReplica("a").start()
            router = await routed(
                [stub], quick_router(response_cache_size=0)
            )
            try:
                for request_id in ("z1", "z2"):
                    response = await router.dispatch_search(
                        search_payload(request_id, QUERY)
                    )
                    assert "cached" not in response
                wire = [
                    d for d in stub.received if d.get("op") == "search"
                ]
                assert len(wire) == 2
            finally:
                await router.stop()
                await stub.stop()

        asyncio.run(main())

    def test_lru_bound_evicts_oldest(self):
        async def main():
            stub = await StubReplica("a").start()
            router = await routed(
                [stub], quick_router(response_cache_size=2)
            )
            try:
                # Three distinct queries through a 2-entry cache: the
                # first key is evicted and misses again on repeat.
                for index in range(3):
                    await router.dispatch_search(search_payload(
                        f"f{index}", QUERY, query_id=f"q{index}"
                    ))
                repeat = await router.dispatch_search(
                    search_payload("r0", QUERY, query_id="q0")
                )
                assert "cached" not in repeat
                kept = await router.dispatch_search(
                    search_payload("r2", QUERY, query_id="q2")
                )
                assert kept["cached"] is True
            finally:
                await router.stop()
                await stub.stop()

        asyncio.run(main())

    def test_non_ok_responses_never_cached(self):
        async def main():
            verdicts = ["error", "ok"]

            async def flaky(stub, data, writer):
                status = verdicts.pop(0)
                response = {"id": data["id"], "status": status}
                if status == "ok":
                    response["result"] = {"fresh": True}
                else:
                    response["error"] = "transient"
                return response

            stub = await StubReplica("a", responder=flaky).start()
            router = await routed([stub])
            try:
                first = await router.dispatch_search(
                    search_payload("e1", QUERY)
                )
                assert first["status"] == "error"
                # The error was not cached: the retry reaches the
                # replica and gets the fresh (ok) answer.
                second = await router.dispatch_search(
                    search_payload("e2", QUERY)
                )
                assert second["status"] == "ok"
                assert "cached" not in second
            finally:
                await router.stop()
                await stub.stop()

        asyncio.run(main())


# -- real services behind the router ----------------------------------------


class TestRouterOverRealServices:
    def test_results_byte_identical_to_single_server(self):
        async def main():
            sequences = generate_database(SMALL_DATABASE)
            queries = [
                (f"q{i}", sequences[i % len(sequences)].text[:48])
                for i in range(4)
            ]
            async with AlignmentService(small_config()) as single:
                async with AlignmentService(
                    small_config(replica="r0")
                ) as first, AlignmentService(
                    small_config(replica="r1")
                ) as second:
                    servers = [
                        await serve_tcp(first, "127.0.0.1", 0),
                        await serve_tcp(second, "127.0.0.1", 0),
                    ]
                    router = quick_router()
                    for index, server in enumerate(servers):
                        port = server.sockets[0].getsockname()[1]
                        await router.add_replica(
                            f"r{index}", "127.0.0.1", port
                        )
                    try:
                        for query_id, text in queries:
                            payload = search_payload(
                                query_id, text, query_id=query_id
                            )
                            direct = await single.handle_line(
                                json.dumps(payload)
                            )
                            routed_response = (
                                await router.dispatch_search(payload)
                            )
                            assert routed_response["status"] == "ok"
                            assert json.dumps(
                                routed_response["result"],
                                sort_keys=True,
                            ) == json.dumps(
                                direct["result"], sort_keys=True
                            )
                    finally:
                        await router.stop()
                        for server in servers:
                            server.close()
                            await server.wait_closed()

        asyncio.run(main())

    def test_packed_replica_byte_identical_through_router(self, tmp_path):
        """A routed mmap-backed replica answers byte-for-byte like a
        direct materialized server, for all three algorithms."""
        from repro.store.packdb import pack_database, reset_packed_memos

        async def main():
            sequences = generate_database(SMALL_DATABASE)
            packed = pack_database(
                sequences, tmp_path / "db", source_config=SMALL_DATABASE
            )
            async with AlignmentService(small_config()) as materialized:
                async with AlignmentService(small_config(
                    replica="pk",
                    database=None,
                    database_path=str(packed),
                )) as mapped:
                    server = await serve_tcp(mapped, "127.0.0.1", 0)
                    router = quick_router()
                    port = server.sockets[0].getsockname()[1]
                    await router.add_replica("pk", "127.0.0.1", port)
                    try:
                        query = sequences[1].text[:48]
                        for algorithm in ("ssearch", "fasta", "blast"):
                            payload = search_payload(
                                f"{algorithm}-1", query,
                                query_id=f"{algorithm}-q",
                            )
                            payload["algorithm"] = algorithm
                            direct = await materialized.handle_line(
                                json.dumps(payload)
                            )
                            routed_response = (
                                await router.dispatch_search(payload)
                            )
                            assert routed_response["status"] == "ok"
                            assert json.dumps(
                                routed_response["result"],
                                sort_keys=True,
                            ) == json.dumps(
                                direct["result"], sort_keys=True
                            )
                    finally:
                        await router.stop()
                        server.close()
                        await server.wait_closed()

        try:
            asyncio.run(main())
        finally:
            reset_packed_memos()


# -- supervisor: real replica processes --------------------------------------


class TestSupervisorChaos:
    """Process-level acceptance: kill, self-heal, restart, drain."""

    SERVE_ARGS = (
        "--jobs", "1", "--shards", "2", "--db-sequences", "10",
        "--queue-capacity", "32", "--no-precompute", "--db-seed", "91",
    )

    def test_kill_restart_drain_zero_failed_requests(self):
        async def main():
            supervisor = ClusterSupervisor(ClusterConfig(
                replicas=2,
                serve_args=self.SERVE_ARGS,
                drain_grace=15.0,
            ))
            await supervisor.start()
            router = supervisor.router
            try:
                async def one(index: int) -> dict:
                    return await router.dispatch_search(search_payload(
                        f"c{index}", QUERY, query_id=f"q{index % 3}"
                    ))

                loop = asyncio.get_running_loop()
                tasks = [
                    loop.create_task(one(index)) for index in range(24)
                ]
                await asyncio.sleep(0.05)
                # Chaos: SIGKILL one replica with requests in flight.
                await supervisor.kill("r0")
                responses = await asyncio.gather(*tasks)
                statuses = [r["status"] for r in responses]
                assert statuses == ["ok"] * len(responses), statuses
                # Identical (query, query_id) pairs produce identical
                # results regardless of which replica answered.
                baseline = json.dumps(
                    responses[0]["result"], sort_keys=True
                )
                for response in responses:
                    if int(response["id"][1:]) % 3 == 0:
                        assert json.dumps(
                            response["result"], sort_keys=True
                        ) == baseline

                # The watcher respawns r0 and the health loop rejoins
                # it — the cluster self-heals to full strength.
                for _ in range(600):
                    if (
                        supervisor.specs["r0"].restarts == 1
                        and router.replicas["r0"].state
                        == STATE_HEALTHY
                    ):
                        break
                    await asyncio.sleep(0.1)
                assert supervisor.specs["r0"].restarts == 1
                assert router.replicas["r0"].state == STATE_HEALTHY

                # Rolling restart under live traffic: zero failures.
                traffic: list[dict] = []
                stop_traffic = asyncio.Event()

                async def pump():
                    index = 0
                    while not stop_traffic.is_set():
                        traffic.append(await router.dispatch_search(
                            search_payload(
                                f"t{index}", QUERY,
                                query_id=f"q{index % 3}",
                            )
                        ))
                        index += 1
                        await asyncio.sleep(0.05)

                pump_task = loop.create_task(pump())
                restart = await router.handle_admin(
                    {"op": "admin", "action": "restart", "id": "rr"}
                )
                stop_traffic.set()
                await pump_task
                assert restart["status"] == "ok"
                assert restart["restarted"] == ["r0", "r1"]
                assert traffic, "no traffic flowed during restart"
                assert all(
                    r["status"] == "ok" for r in traffic
                ), [r["status"] for r in traffic]

                # Graceful drain shuts the whole topology down.
                drained = await supervisor.drain()
                assert drained["drained"] is True
                assert supervisor.shutdown.is_set()
                response = await router.dispatch_search(
                    search_payload("late", QUERY)
                )
                assert response["status"] == "shed"
                assert response["reason"] == "cluster draining"
            finally:
                await supervisor.stop()

        asyncio.run(main())
