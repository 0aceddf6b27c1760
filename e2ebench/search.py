"""search-distinct, search-hot-small and search-hot: open-loop search
traffic.

search-distinct drives one ``repro serve`` process (2 pool workers, 2
shards) over a packed database; every query is distinct, so every
request pays a real shard scan.  The search-hot workloads drive
``repro cluster up`` (2 replicas of 1 worker each) with queries drawn
by skewed popularity from a pool four times the router's 256-entry
response cache, so the router cache, affinity hashing and eviction
carry the load; search-hot-small does so over search-distinct's
database, search-hot over the 2,000 sequences where responses outgrow
the router's line limit.

Each sends a fixed mix at each rate of a fixed ladder (search-hot-small
after an untimed warm-up).  The first step
is the nominal rate, sent for the run's ``--seconds`` (at least 200
requests): its due-time latencies give ``p50_ms``/``p95_ms``.  Each
later step sends 200.  A step passes when
nothing fails, its p95 stays under :data:`P95_LIMIT_MS` and its queue
does not grow; ``max_rate_rps`` is the last passing step before the
first failing one.

Correctness: the first two nominal-step responses of each algorithm
(:func:`sampled`) are compared byte for byte with what
``repro.align.batch.search_one`` computes (``make_engine(...).search``)
in this process over the same packed database.
"""

from __future__ import annotations

import asyncio
import json
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from loadgen import open_loop, request_once
from memory import PeakSampler, descendants, reap
from stats import backlog_grows, due_latencies, nearest_rank, supported

#: Latency limit on a step's p95 for it to count toward max_rate_rps.
P95_LIMIT_MS = 800.0
#: Requests per ladder step above the nominal rate, and the fewest at
#: the nominal rate: the fewest for which a nearest-rank p95 has ten
#: samples beyond it.
STEP_REQUESTS = 200
#: Seconds after a step's last due time that its answers may still come.
GRACE_S = 10.0
#: Set-ups (pack + start) timed per run; set-up reports their median.
SETUP_SAMPLES = 3
#: Responses per algorithm checked against the in-process reference.
SAMPLE_PER_ALGORITHM = 2
#: The database is fixed (the serve default's seed), and so is the
#: population of queries (drawn with ``QUERY_SEED``).  The run seed
#: draws only the request sequence from that population: the order of
#: the distinct queries, or which pooled query each request repeats.
#: Which queries happen to be cheap or dear to search then does not
#: move the figures between seeds.
DB_SEED = 2006
QUERY_SEED = 222
#: The pooled query of rank ``r`` is drawn with weight ``r**-1.3``.  The
#: exponent is an assumption, like the search-distinct mix.  It puts
#: the router's hit ratio at ~87%, so that neither percentile sits on
#: the boundary between hits (~2 ms) and misses (~30-150 ms): the p50
#: falls in the middle of the hits and the p95 in the middle of the
#: misses.  At 1/rank (~74% hits) each fell in the slow tail of its
#: class, and both spread by over 0.2 in five 25 s runs on a 2-core
#: machine.
POPULARITY_EXPONENT = 1.3


@dataclass(frozen=True)
class SearchShape:
    """Everything that defines one search workload's traffic."""

    db_sequences: int
    #: The algorithm of request ``i`` is ``mix[i % len(mix)]``: a fixed
    #: interleave, so the seed changes the queries and not where the
    #: slow algorithms fall in the schedule.
    mix: tuple[str, ...]
    ladder: tuple[float, ...]
    #: Queries to draw from by popularity; None means all distinct.
    pool: int | None = None
    cluster: bool = False
    #: Requests sent untimed, at the top ladder rate, before the
    #: nominal step, so that it meets caches in their steady state.
    warmup: int = 0


#: Per 20 requests: 15 BLAST, 3 FASTA, 2 SSEARCH, evenly spread.  This
#: mix is an assumption, not a measured traffic record (neither the
#: paper nor this repository has one).  BLAST is the majority because it
#: is the heuristic meant for interactive search.  SSEARCH costs ~47
#: BLAST scans here (~0.4 s of a core for a 222-residue query) and holds
#: both pool workers while it runs, so its share decides the tail: at
#: 10% the top 5% of latencies are SSEARCH round trips in every run,
#: whereas at 2.5% the p95 fell on the boundary between SSEARCH requests
#: and those queued behind them (quartile spread over ten runs on a
#: 2-core machine: 0.28, against 0.07 at 10%).  The database is the one
#: ``repro serve`` uses when given none (30 sequences, seed 2006); one
#: SSEARCH over 2,000 sequences takes ~20 s.  The nominal rate is low
#: for the same reason: at 20/s queueing moved the p50 by twice as much
#: between runs as at 8/s.
DISTINCT = SearchShape(
    db_sequences=30,
    mix=("blast", "fasta", "blast", "blast", "ssearch")
    + ("blast",) * 3 + ("fasta",) + ("blast",) * 5 + ("ssearch",)
    + ("blast",) * 2 + ("fasta",) + ("blast",) * 2,
    ladder=(8.0, 120.0),
)
#: search-hot's traffic over search-distinct's database, where default
#: BLAST responses (~4 KB) fit the router's 64 KiB line limit: the
#: router cache, affinity and eviction under load that passes today.
#: The warm-up and :data:`POPULARITY_EXPONENT` put the router at its
#: steady hit ratio (~87%) before the nominal step.
HOT_SMALL = SearchShape(
    db_sequences=30, mix=("blast",), ladder=(40.0, 120.0), pool=1024,
    cluster=True, warmup=400,
)
#: The 2,000-sequence database at which default BLAST responses
#: (best_count 500) run to ~74 KB.  Only BLAST: an SSEARCH miss at
#: this size would stall a 1-worker replica for ~20 s.
HOT = SearchShape(
    db_sequences=2000, mix=("blast",), ladder=(5.0, 10.0), pool=1024,
    cluster=True,
)


def query_length() -> int:
    """Length of the query behind the paper's figures (P14942, 222)."""
    from repro.bio.queries import DEFAULT_QUERY_ACCESSION, TABLE2_QUERIES

    return next(descriptor.length for descriptor in TABLE2_QUERIES
                if descriptor.accession == DEFAULT_QUERY_ACCESSION)


def database_sequences(shape: SearchShape) -> list:
    """The sequences ``repro store pack-db`` packs for ``shape``."""
    import dataclasses

    from repro.bio.synthetic import generate_database
    from repro.serve.server import DEFAULT_DATABASE

    return list(generate_database(dataclasses.replace(
        DEFAULT_DATABASE, sequence_count=shape.db_sequences, seed=DB_SEED)))


def nominal_requests(shape: SearchShape, seconds: float) -> int:
    """Requests in the nominal step: ``seconds`` at the nominal rate."""
    return max(STEP_REQUESTS, round(shape.ladder[0] * seconds))


def draw_queries(subjects: list, count: int, rng: random.Random) -> list[str]:
    """``count`` distinct queries, drawn as ``repro.serve.loadgen``
    draws them: a :func:`query_length` slice at a random offset of a
    random database sequence, so every query has real hits.  Unlike
    loadgen, sequences shorter than the query are skipped, so every
    query has the same length and a request's cost does not depend on
    which sequence it came from."""
    length = query_length()
    long_enough = [subject.text for subject in subjects
                   if len(subject.text) >= length]
    texts: list[str] = []
    seen: set[str] = set()
    for _ in range(count * 100):
        subject = long_enough[rng.randrange(len(long_enough))]
        start = rng.randrange(len(subject) - length + 1)
        text = subject[start:start + length]
        if text not in seen:
            seen.add(text)
            texts.append(text)
            if len(texts) == count:
                return texts
    raise ValueError(f"the database holds too few distinct {length}-residue "
                     f"slices for {count} queries")


def make_traffic(shape: SearchShape, seed: int,
                 nominal: int) -> tuple[list[dict], list[list[dict]]]:
    """The warm-up requests and those of every ladder step: the fixed
    query population, in a sequence drawn from ``seed``."""
    rng = random.Random(seed)
    sizes = [shape.warmup, nominal] + [STEP_REQUESTS] * (len(shape.ladder) - 1)
    total = sum(sizes)
    subjects = database_sequences(shape)
    population = random.Random(QUERY_SEED)
    if shape.pool is None:
        texts = draw_queries(subjects, total, population)
        # Each step sends the same queries with the same algorithm in
        # every run; the seed orders each algorithm's queries over its
        # places in the interleave.
        picks = list(range(total))
        begin = 0
        for size in sizes:
            for algorithm in dict.fromkeys(shape.mix):
                places = [index for index in range(begin, begin + size)
                          if shape.mix[index % len(shape.mix)] == algorithm]
                queries = [picks[index] for index in places]
                rng.shuffle(queries)
                for index, query in zip(places, queries):
                    picks[index] = query
            begin += size
    else:
        texts = draw_queries(subjects, shape.pool, population)
        # Zipf-like popularity: a few hot queries and a long tail that
        # keeps evicting from the router's cache.
        weights = [rank ** -POPULARITY_EXPONENT
                   for rank in range(1, shape.pool + 1)]
        picks = rng.choices(range(shape.pool), weights=weights, k=total)
    steps = []
    index = 0
    for step, size in enumerate(sizes):
        payloads = []
        for offset in range(size):
            pick = picks[index]
            # A pooled query keeps one algorithm on every repeat.
            slot = pick if shape.pool else index
            algorithm = shape.mix[slot % len(shape.mix)]
            payloads.append({
                "op": "search", "id": f"w{offset}" if step == 0 else f"s{step - 1}-{offset}",
                "query_id": f"q{pick}", "query": texts[pick],
                "algorithm": algorithm,
            })
            index += 1
        steps.append(payloads)
    return steps[0], steps[1:]


class Service:
    """A packed database plus the server (or cluster) answering on it."""

    def __init__(self, shape: SearchShape, scratch: Path,
                 env: dict[str, str], serial: int) -> None:
        self.shape = shape
        self.root = scratch / f"service-{serial}"
        self.root.mkdir()
        self.db_path = self.root / "db"
        self.log = self.root / "stdout.log"
        self.env = env
        self.process: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self.pack_s = self.start_s = 0.0

    def pack(self) -> None:
        began = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro", "store", "pack-db",
             str(self.db_path), "--db-sequences", str(self.shape.db_sequences),
             "--db-seed", str(DB_SEED)],
            env=self.env, check=True, stdout=subprocess.DEVNULL,
        )
        self.pack_s = time.perf_counter() - began

    def start(self) -> None:
        if self.shape.cluster:
            command = ["cluster", "up", "--replicas", "2", "--jobs", "1",
                       "--state-dir", str(self.root / "cluster")]
            marker = "cluster up: router on "
        else:
            command = ["serve", "--jobs", "2"]
            marker = "serving on "
        command += ["--port", "0", "--shards", "2",
                    "--db-path", str(self.db_path)]
        began = time.perf_counter()
        with open(self.log, "w") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", *command],
                env=self.env, stdout=log, stderr=subprocess.STDOUT,
            )
        deadline = began + 120.0
        while time.perf_counter() < deadline:
            for line in self.log.read_text().splitlines():
                if line.startswith(marker):
                    host, port = line[len(marker):].split()[0].rstrip(",").split(":")
                    self.address = (host, int(port))
                    # The ready line comes before the SIGTERM handler is
                    # installed; an answered ping means it is in place.
                    asyncio.run(request_once(host, int(port), {"op": "ping", "id": "up"}))
                    self.start_s = time.perf_counter() - began
                    return
            if self.process.poll() is not None:
                break
            time.sleep(0.02)
        raise RuntimeError(f"service did not start:\n{self.log.read_text()}")

    def stop(self) -> None:
        """Drain the service with SIGTERM, then make sure every process
        it started has ended (pool workers or replicas left behind by
        an unclean exit are killed)."""
        if self.process is None:
            return
        members = descendants(self.process.pid)[1:]
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=40.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process = None
        reap(members)


def _histogram_ms(snapshot: dict, name: str, point: str) -> float:
    return snapshot.get("histograms", {}).get(name, {}).get(point, 0.0) * 1e3


def _counter(snapshot: dict, name: str) -> int:
    return sum(value for key, value in snapshot.get("counters", {}).items()
               if key == name or key.startswith(name + "{"))


def serve_layers(snapshot: dict, counters: dict) -> dict[str, float]:
    """serve.* metrics from a service (or cluster aggregate) snapshot."""
    occupancy = snapshot.get("histograms", {}).get("serve.batch.occupancy", {})
    return {
        "serve.queue_wait_p50_ms": _histogram_ms(snapshot, "serve.queue.wait", "p50"),
        "serve.queue_wait_p95_ms": _histogram_ms(snapshot, "serve.queue.wait", "p95"),
        "serve.batch_occupancy_mean": occupancy.get("mean", 0.0),
        "serve.scan_p50_ms": _histogram_ms(snapshot, "serve.scan.latency", "p50"),
        "serve.scan_p95_ms": _histogram_ms(snapshot, "serve.scan.latency", "p95"),
        "serve.shed": _counter(counters, "serve.requests.shed"),
        "serve.timeouts": _counter(counters, "serve.requests.timeout"),
    }


def cluster_layers(before: dict, nominal: dict, final: dict) -> dict[str, float]:
    """cluster.* metrics from the router's telemetry op, taken before
    and after the nominal step and at the end of the run: the hit ratio
    is over the nominal step, the failure counts over the whole run."""
    router = nominal.get("router", {})
    hits, misses = (
        _counter(router, name) - _counter(before.get("router", {}), name)
        for name in ("router.cache.hits", "router.cache.misses")
    )
    last = final.get("router", {})
    return {
        "cluster.response_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cluster.router_p50_ms": _histogram_ms(router, "router.request.latency", "p50"),
        "cluster.redispatches": _counter(last, "router.redispatches"),
        "cluster.shed": _counter(last, "router.requests.shed"),
        "cluster.ejections": _counter(last, "router.replica.ejections"),
    }


def sampled(payloads: list[dict]) -> list[dict]:
    """The first :data:`SAMPLE_PER_ALGORITHM` requests of each algorithm."""
    taken: dict[str, int] = {}
    chosen = []
    for payload in payloads:
        count = taken.get(payload["algorithm"], 0)
        if count < SAMPLE_PER_ALGORITHM:
            taken[payload["algorithm"]] = count + 1
            chosen.append(payload)
    return chosen


def check_sample(shape: SearchShape, db_path: Path, payloads: list[dict],
                 records: list[dict]) -> int:
    """Byte-compare sampled responses with the in-process reference;
    return the number of mismatches (each also marks its record
    failed)."""
    from repro.align.batch import SearchParams, make_engine, make_query, result_to_dict
    from repro.serve.protocol import encode_response, ok_response
    from repro.store.packdb import open_packed

    database = open_packed(db_path)
    by_id = {record["id"]: record for record in records}
    mismatches = 0
    for payload in sampled(payloads):
        algorithm = payload["algorithm"]
        record = by_id[payload["id"]]
        if not record["ok"]:
            continue  # already failed; nothing to compare
        engine = make_engine(SearchParams(algorithm=algorithm),
                             make_query(payload["query_id"], payload["query"]))
        result = engine.search(database)
        line = record["line"]
        if shape.cluster:
            matches = encode_response(json.loads(line)["result"]) == encode_response(
                result_to_dict(result))
        else:
            expected = encode_response(ok_response(
                payload["id"], result_to_dict(result), shards=2)).encode()
            matches = line == expected
        if not matches:
            mismatches += 1
            record["ok"] = False
            print(f"search: response {payload['id']} ({algorithm}) differs "
                  f"from the search_one reference", file=sys.stderr)
    return mismatches


#: Queries each reference engine searches for its throughput, the
#: first of them an untimed warm-up.
THROUGHPUT_QUERIES = 4


def engine_throughput(db_path: Path, payloads: list[dict]) -> dict[str, float]:
    """Per algorithm, the reference engine's cell updates per second on
    one core in this process: query residues x database residues over
    the time of ``engine.search`` alone.  Every algorithm runs on the
    first :data:`THROUGHPUT_QUERIES` queries of the nominal step,
    whichever algorithm the traffic sent them with; each engine is
    built outside the timed region and the first query is an untimed
    warm-up.  The traffic may not use every algorithm: this measures
    the ``align`` layer on any search workload."""
    from repro.align.batch import ALGORITHMS, SearchParams, make_engine, make_query
    from repro.store.packdb import open_packed

    database = open_packed(db_path)
    queries = payloads[:THROUGHPUT_QUERIES]
    cups = {}
    for algorithm in ALGORITHMS:
        cells = seconds = 0.0
        for index, payload in enumerate(queries):
            engine = make_engine(SearchParams(algorithm=algorithm),
                                 make_query(payload["query_id"], payload["query"]))
            began = time.perf_counter()
            engine.search(database)
            if index:
                seconds += time.perf_counter() - began
                cells += len(payload["query"]) * database.residue_count
        cups[algorithm] = cells / seconds
    return cups


def served_cell_updates(payloads: list[dict], records: list[dict],
                        residues: int, snapshot: dict) -> float:
    """Cell updates per second of the service's own shard scans over
    the nominal step: query residues x database residues of every
    answered request, over the summed ``serve.scan.latency`` (wall
    time of the pool scan calls, both workers together)."""
    answered = {record["id"] for record in records if record["ok"]}
    cells = sum(len(payload["query"]) * residues for payload in payloads
                if payload["id"] in answered)
    scan_s = snapshot.get("histograms", {}).get("serve.scan.latency", {}).get("total", 0.0)
    return cells / scan_s if scan_s else 0.0


def step_passes(records: list[dict], rate: float) -> bool:
    if not all(record["ok"] for record in records):
        return False
    latencies = due_latencies(records)
    return (supported(len(latencies), 95)
            and nearest_rank(latencies, 95) * 1e3 <= P95_LIMIT_MS
            and not backlog_grows(records, rate))


def run_search(shape: SearchShape, seed: int, seconds: float, trace: bool,
               scratch: Path, env: dict[str, str]) -> dict:
    """Set up, drive the ladder, check the sample, tear down."""
    warmup, steps = make_traffic(shape, seed, nominal_requests(shape, seconds))
    services = []
    try:
        for serial in range(SETUP_SAMPLES):
            service = Service(shape, scratch, env, serial)
            services.append(service)
            service.pack()
            service.start()
            if serial < SETUP_SAMPLES - 1:
                service.stop()
        service = services[-1]
        keep = {payload["id"] for payload in sampled(steps[0])}
        outcome = asyncio.run(_drive(service, shape, warmup, steps, keep, trace))
    finally:
        for each in services:
            each.stop()
    nominal = outcome["steps"][0]
    mismatches = check_sample(shape, service.db_path, steps[0], nominal)

    rate = shape.ladder[0]
    horizon = len(nominal) / rate + GRACE_S
    latencies = [min(value, horizon) * 1e3 for value in due_latencies(nominal)]
    first_due = min(record["due"] for record in nominal)
    last_done = max(min(record["done"], record["due"] + horizon) for record in nominal)
    max_rate = 0.0
    for step_rate, records in zip(shape.ladder, outcome["steps"]):
        step_ms = [value * 1e3 for value in due_latencies(records)]
        print(f"search: {step_rate:g}/s p50 {nearest_rank(step_ms, 50):.1f} ms "
              f"p95 {nearest_rank(step_ms, 95):.1f} ms, "
              f"{sum(not record['ok'] for record in records)} failed, "
              f"backlog {backlog_grows(records, step_rate)}", file=sys.stderr)
        if not step_passes(records, step_rate):
            break
        max_rate = step_rate
    failed = sum(1 for record in nominal if not record["ok"])
    setups = [each.pack_s + each.start_s for each in services]
    result = {
        "attempted": len(nominal),
        "failed": failed,
        "correct": mismatches == 0,
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "wall_s": last_done - first_due,
            "p50_ms": nearest_rank(latencies, 50),
            "p95_ms": nearest_rank(latencies, 95),
            "max_rate_rps": max_rate,
            "ok_share": (len(nominal) - failed) / len(nominal),
            "peak_rss_mb": outcome["peak_rss_mb"],
        },
    }
    if trace:
        layers = dict(outcome["layers"])
        layers["store.pack_s"] = statistics.median(each.pack_s for each in services)
        layers["store.replica_start_s"] = statistics.median(
            each.start_s for each in services)
        for algorithm, value in engine_throughput(service.db_path, steps[0]).items():
            layers[f"align.{algorithm}.cell_updates_per_s"] = value
        if not shape.cluster:
            from repro.store.packdb import open_packed

            layers["align.served_cell_updates_per_s"] = served_cell_updates(
                steps[0], nominal, open_packed(service.db_path).residue_count,
                outcome["nominal_telemetry"])
        layers["loadgen.late_p95_ms"] = nearest_rank(
            [(record["sent"] - record["due"]) * 1e3 for record in nominal], 95)
        layers["trace.wall_s"] = result["end_to_end"]["wall_s"]
        layers["trace.p50_ms"] = result["end_to_end"]["p50_ms"]
        result["per_layer"] = layers
    return result


async def _drive(service: Service, shape: SearchShape, warmup: list[dict],
                 steps: list[list[dict]], keep: set[str], trace: bool) -> dict:
    host, port = service.address
    outcome: dict = {"steps": [], "layers": {}}
    sampler = PeakSampler()
    sampler.watch(service.process.pid)
    with sampler:
        if warmup:
            await open_loop(host, port, warmup, shape.ladder[-1], grace=GRACE_S)
        if trace:
            before = await request_once(host, port, {"op": "telemetry", "id": "t"})
        for index, (rate, payloads) in enumerate(zip(shape.ladder, steps)):
            records = await open_loop(host, port, payloads, rate,
                                      keep=keep if index == 0 else None,
                                      grace=GRACE_S)
            outcome["steps"].append(records)
            if index == 0 and trace:
                nominal = await request_once(host, port, {"op": "telemetry", "id": "t"})
            if not step_passes(records, rate):
                break
        sampler.sample()
    outcome["peak_rss_mb"] = sampler.peak_mb
    if trace:
        final = await request_once(host, port, {"op": "telemetry", "id": "t"})
        telemetry = outcome["nominal_telemetry"] = nominal["telemetry"]
        if shape.cluster:
            outcome["layers"].update(serve_layers(
                telemetry["aggregate"], final["telemetry"]["aggregate"]))
            outcome["layers"].update(cluster_layers(
                before["telemetry"], telemetry, final["telemetry"]))
        else:
            outcome["layers"].update(serve_layers(telemetry, final["telemetry"]))
    return outcome
