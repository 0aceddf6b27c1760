"""Microbenchmarks for the columnar trace hot path.

Three throughputs cover the stages the performance work targets:

* **trace generation** — running a workload kernel through
  ``TraceBuilder`` into columnar storage (instructions/second);
* **trace load** — ``load_trace`` on a saved ``.npz`` archive, which
  since the column refactor materializes no per-instruction objects;
* **simulation** — the out-of-order core's cycle loop over the decode
  plane (simulated instructions/second).

A separate ``decode_plane`` section records what the decode plane
costs on Fig. 8's two paired traces, the longest any experiment
simulates: bytes kept per instruction (tracemalloc) and decode
throughput (instructions/second).

Methodology: every metric is the *best of N* repetitions.  On shared
machines the run-to-run spread is dominated by scheduler and frequency
noise, so the maximum rate is the most stable estimate of what the
code itself can do; the repetition count is recorded alongside.

``REFERENCE_IPS`` pins the same measurements taken on this benchmark's
configuration immediately before the columnar/decode-plane/timing-wheel
rework, so reports can show the speedup without needing the old code.
"""

from __future__ import annotations

import gc
import json
import math
import os
import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import Any, Callable

from repro.bio.queries import default_query
from repro.bio.synthetic import SyntheticDatabaseConfig, generate_database
from repro.isa.serialize import load_trace, save_trace
from repro.isa.trace import Trace
from repro.uarch.config import (
    BP_PERFECT,
    ME1,
    MEINF,
    PROC_4WAY,
    PROC_8WAY,
    PROC_16WAY,
)
from repro.kernels.registry import create_kernel
from repro.uarch.pipeline.decode import DecodedTrace
from repro.uarch.simulator import simulate
from repro.workloads.suite import DEFAULT_DATABASE, WorkloadSuite

#: Throughput of each stage measured at the commit preceding the
#: columnar rework (same workload, parameters, and best-of-N protocol).
REFERENCE_IPS: dict[str, int] = {
    "trace_generation": 511_761,
    "load_trace": 206_143,
    "simulate": 122_204,
}

#: Benchmark workload and suite parameters (matches the golden suite).
BENCH_WORKLOAD = "ssearch34"
_SUITE_PARAMS: dict[str, Any] = {
    "sequence_count": 30,
    "family_count": 2,
    "family_size": 3,
    "seed": 2006,
    "mean_length": 200.0,
}
_TRACE_BUDGET = 50_000
_SIM_SLICE = 20_000
_QUICK_SIM_SLICE = 6_000


def _make_suite() -> WorkloadSuite:
    return WorkloadSuite(
        database_config=SyntheticDatabaseConfig(**_SUITE_PARAMS),
        trace_budget=_TRACE_BUDGET,
    )


def _best_rate(
    task: Callable[[], int], repeats: int
) -> tuple[float, int]:
    """Run ``task`` (returns instructions processed) ``repeats`` times;
    returns (best instructions/second, instructions per run)."""
    best = 0.0
    instructions = 0
    for _ in range(repeats):
        start = time.perf_counter()
        instructions = task()
        elapsed = time.perf_counter() - start
        if elapsed > 0:
            best = max(best, instructions / elapsed)
    return best, instructions


def bench_trace_generation(repeats: int) -> dict[str, Any]:
    """Kernel -> TraceBuilder -> columnar trace throughput.

    The headline ``ips`` measures :data:`BENCH_WORKLOAD` (stable across
    baselines); ``per_workload`` breaks the same measurement down over
    every golden kernel so emission-path wins are attributable.
    """
    from repro.kernels.registry import WORKLOAD_NAMES

    def task_for(workload: str) -> Callable[[], int]:
        def task() -> int:
            # A fresh suite each run so nothing is served from a cache.
            return len(_make_suite().trace(workload))

        return task

    per_workload = {}
    for workload in WORKLOAD_NAMES:
        ips, instructions = _best_rate(task_for(workload), repeats)
        per_workload[workload] = {
            "instructions": instructions, "ips": round(ips)
        }
    headline = per_workload[BENCH_WORKLOAD]
    return {
        "instructions": headline["instructions"],
        "ips": headline["ips"],
        "repeats": repeats,
        "per_workload": per_workload,
    }


def bench_load_trace(trace: Trace, repeats: int) -> dict[str, Any]:
    """``load_trace`` throughput on a saved archive of ``trace``."""
    handle, path = tempfile.mkstemp(suffix=".npz")
    os.close(handle)
    try:
        save_trace(trace, path)

        def task() -> int:
            return len(load_trace(path))

        ips, instructions = _best_rate(task, repeats)
    finally:
        os.unlink(path)
    return {"instructions": instructions, "ips": round(ips), "repeats": repeats}


#: Simulation configurations for the per-config breakdown: the paper's
#: baseline (headline, stable across baselines), the wider cores (more
#: wakeup/select work per cycle), the ideal memory corner (no miss
#: machinery), and perfect branch prediction (no recovery machinery).
BENCH_SIM_CONFIGS = (
    ("4-way/me1", PROC_4WAY.with_memory(ME1)),
    ("8-way/me1", PROC_8WAY.with_memory(ME1)),
    ("16-way/me1", PROC_16WAY.with_memory(ME1)),
    ("4-way/meinf", PROC_4WAY.with_memory(MEINF)),
    ("4-way/me1+bperf", PROC_4WAY.with_memory(ME1).with_branch(BP_PERFECT)),
)

#: The breakdown entry whose numbers are the headline ``ips``.
BENCH_SIM_HEADLINE = "4-way/me1"


def bench_simulate(trace: Trace, repeats: int) -> dict[str, Any]:
    """Out-of-order core throughput (simulated instructions/second).

    The headline ``ips`` measures the paper-baseline configuration
    (:data:`BENCH_SIM_HEADLINE`, stable across stored baselines);
    ``per_config`` breaks the same measurement down over
    :data:`BENCH_SIM_CONFIGS` so core-loop wins and their sensitivity
    to width, memory, and predictor machinery are attributable.
    """
    per_config = {}
    for label, config in BENCH_SIM_CONFIGS:
        simulate(trace, config)  # warm the decode plane and code paths

        def task(config=config) -> int:
            return simulate(trace, config).instructions

        ips, instructions = _best_rate(task, repeats)
        per_config[label] = {
            "instructions": instructions,
            "cycles": simulate(trace, config).cycles,
            "ips": round(ips),
        }
    headline_config = dict(BENCH_SIM_CONFIGS)[BENCH_SIM_HEADLINE]
    headline = per_config[BENCH_SIM_HEADLINE]
    return {
        "instructions": headline["instructions"],
        "cycles": headline["cycles"],
        "config": headline_config.name,
        "memory": headline_config.memory.name,
        "ips": headline["ips"],
        "repeats": repeats,
        "per_config": per_config,
    }


#: Workloads whose Fig. 8 paired traces the decode-plane bench decodes.
DECODE_WORKLOADS = ("sw_vmx128", "sw_vmx256")


def bench_decode_plane(repeats: int) -> dict[str, Any]:
    """Decode-plane cost on Fig. 8's paired traces.

    Each trace is the default database's first subject traced in full,
    which is Fig. 8's paired slice at every ``REPRO_SCALE`` below ~3.8
    (see :meth:`WorkloadSuite.paired_traces`).  ``kept_bytes_per_
    instruction`` and ``peak_bytes_per_instruction`` are what
    tracemalloc sees one :class:`DecodedTrace` build keep and peak at;
    ``ips`` is the best-of-N decode throughput with tracing off.
    """
    database = generate_database(DEFAULT_DATABASE).slice(1)
    query = default_query()
    per_workload = {}
    for workload in DECODE_WORKLOADS:
        trace = create_kernel(workload).run(
            query, database, record=True, limit=None
        ).trace
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            plane = DecodedTrace(trace)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del plane
        ips, instructions = _best_rate(
            lambda trace=trace: DecodedTrace(trace).n, repeats
        )
        per_workload[workload] = {
            "instructions": instructions,
            "kept_bytes_per_instruction": round(
                (kept - before) / instructions, 1
            ),
            "peak_bytes_per_instruction": round(
                (peak - before) / instructions, 1
            ),
            "ips": round(ips),
        }
    return {"repeats": repeats, "per_workload": per_workload}


def run_bench(quick: bool = False) -> dict[str, Any]:
    """Run all the benchmarks; returns the report dictionary."""
    repeats = 2 if quick else 5
    suite = _make_suite()
    trace = suite.trace(BENCH_WORKLOAD)
    sim_slice = trace.slice(_QUICK_SIM_SLICE if quick else _SIM_SLICE)
    metrics = {
        "trace_generation": bench_trace_generation(1 if quick else 3),
        "load_trace": bench_load_trace(trace, repeats),
        "simulate": bench_simulate(sim_slice, repeats),
    }
    # Metrics and REFERENCE_IPS may drift apart (a metric added after
    # the reference was pinned, or vice versa): report speedups only for
    # the intersection instead of KeyErroring.
    speedups = {
        name: round(measured["ips"] / REFERENCE_IPS[name], 2)
        for name, measured in metrics.items()
        if REFERENCE_IPS.get(name)
    }
    return {
        "version": 1,
        "mode": "quick" if quick else "full",
        "workload": BENCH_WORKLOAD,
        "suite": dict(_SUITE_PARAMS, trace_budget=_TRACE_BUDGET),
        "metrics": metrics,
        "reference_ips": dict(REFERENCE_IPS),
        "speedup_vs_reference": speedups,
        "decode_plane": bench_decode_plane(repeats),
    }


#: The pinned baseline report at the repo root (``repro bench --check``).
COMMITTED_BASELINE = Path(__file__).resolve().parents[2] / "BENCH_core.json"


def check_baseline(
    report: dict[str, Any],
    baseline_path: str | Path | None = None,
    allowed_drop: float = 0.25,
    warnings: list[str] | None = None,
) -> list[str]:
    """Tight regression gate against the committed baseline report.

    Absolute throughput varies wildly across CI machines, so the check
    normalizes for machine speed first: each metric's measured/baseline
    ratio is divided by the geometric mean of all the ratios.  A metric
    fails when its normalized throughput dropped more than
    ``allowed_drop`` (default 25%) — i.e. one stage got slower relative
    to the others, which is what an algorithmic regression looks like,
    while a uniformly slower machine passes.

    A metric measured by this report but absent from the baseline (added
    after the baseline was committed) is not a failure: it is skipped
    and noted in ``warnings`` (caller-supplied list) so the baseline can
    be regenerated.
    """
    path = Path(baseline_path or COMMITTED_BASELINE)
    try:
        baseline = json.loads(path.read_text())
    except OSError as error:
        return [
            f"baseline {path} is missing or unreadable ({error}); "
            "regenerate it with `python -m repro bench --out "
            f"{path.name}`"
        ]
    except ValueError as error:
        return [
            f"baseline {path} is not valid JSON ({error}); "
            "regenerate it with `python -m repro bench --out "
            f"{path.name}`"
        ]
    if not isinstance(baseline, dict):
        return [
            f"baseline {path} is not a benchmark report object; "
            "regenerate it with `python -m repro bench --out "
            f"{path.name}`"
        ]
    ratios: dict[str, float] = {}
    for name, measured in report["metrics"].items():
        reference = baseline.get("metrics", {}).get(name, {}).get("ips")
        if reference:
            ratios[name] = measured["ips"] / reference
        elif warnings is not None:
            warnings.append(
                f"{name}: not in baseline {path.name}; skipped "
                "(regenerate the baseline to start gating it)"
            )
    if not ratios:
        return [f"baseline {path} shares no metrics with this report"]
    scale = math.exp(
        sum(math.log(ratio) for ratio in ratios.values()) / len(ratios)
    )
    failures = []
    for name, ratio in sorted(ratios.items()):
        if ratio < scale * (1.0 - allowed_drop):
            failures.append(
                f"{name}: normalized throughput {ratio / scale:.2f}x of "
                f"baseline (machine-speed factor {scale:.2f}) is more "
                f"than {allowed_drop:.0%} below {path.name}"
            )
    return failures


# -- cluster: packed-database replica fleet ---------------------------------

#: Floors for the packed-database serving gates (``--check``): replica
#: fleets on a packed snapshot must cold-start at least this much
#: faster, and carry at least this fraction less per-replica RSS, than
#: the same fleet materializing a private database copy per process.
CLUSTER_COLD_START_FLOOR = 2.0
CLUSTER_RSS_REDUCTION_FLOOR = 0.4

#: Database the cluster benchmark serves: big enough that generation
#: dominates replica start-up and the residue heap dominates RSS, small
#: enough that a BLAST probe scan stays in benchmark time.
CLUSTER_DB_CONFIG = SyntheticDatabaseConfig(
    sequence_count=24_000,
    family_count=2,
    family_size=3,
    seed=2006,
    mean_length=200.0,
)
_CLUSTER_REPLICAS = 3
_CLUSTER_QUERY = (
    "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQAPILSRVGDGTQDNLSGAEKAVQVKVKALP"
    "DAQFEVVHSLAKWKR"
)
#: ``--jobs 1`` keeps each replica a single process (the serial
#: executor materializes the database inline), so per-replica RSS is
#: one process and the packed/materialized contrast is undiluted.
_CLUSTER_SERVE_ARGS = (
    "--jobs", "1", "--shards", "2", "--no-precompute",
)


def process_rss_bytes(pid: int) -> int | None:
    """Proportional set size of one process, in bytes (Linux).

    Pss splits shared pages among their sharers — exactly the
    accounting under which N replicas mmapping one packed database pay
    for its pages once between them.  Falls back to VmRSS where
    ``smaps_rollup`` is unavailable, and to ``None`` off Linux
    (callers treat the RSS gate as vacuous there).
    """
    try:
        for line in Path(
            f"/proc/{pid}/smaps_rollup"
        ).read_text().splitlines():
            if line.startswith("Pss:"):
                return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


async def _bench_cluster_path(
    serve_args: tuple[str, ...], replicas: int
) -> dict[str, Any]:
    """Start one fleet, probe every replica, measure start + RSS."""
    import asyncio

    from repro.cluster.supervisor import ClusterConfig, ClusterSupervisor

    supervisor = ClusterSupervisor(ClusterConfig(
        replicas=replicas, serve_args=serve_args
    ))
    start = time.perf_counter()
    await supervisor.start()
    cold_start = time.perf_counter() - start
    try:
        # One probe per replica, dispatched directly (not through
        # pick()): every replica reaches steady state — database
        # resident, engines compiled, one full scan done — before RSS
        # is read.
        names = sorted(supervisor.router.replicas)
        probes = [
            supervisor.router.replicas[name].request(
                {
                    "op": "search",
                    "id": f"probe-{name}",
                    "query": _CLUSTER_QUERY,
                    "algorithm": "blast",
                    "best_count": 50,
                },
                timeout=300.0,
            )
            for name in names
        ]
        responses = await asyncio.gather(*probes)
        rss = {
            name: process_rss_bytes(spec.process.pid)
            for name, spec in sorted(supervisor.specs.items())
            if spec.process is not None
        }
    finally:
        await supervisor.stop()
    results = [
        json.dumps(response.get("result"), sort_keys=True)
        for response in responses
    ]
    for response in responses:
        if response.get("status") != "ok":
            raise RuntimeError(f"cluster probe failed: {response}")
    return {
        "cold_start_s": round(cold_start, 3),
        "rss_per_replica": rss,
        "results": results,
    }


def bench_cluster(replicas: int = _CLUSTER_REPLICAS) -> dict[str, Any]:
    """Replica fleet on a packed snapshot vs materialize-per-replica.

    Packs :data:`CLUSTER_DB_CONFIG` once, then brings up the same
    topology twice — every replica generating a private database copy,
    then every replica mmapping the shared snapshot — and reports the
    fleet cold-start times, per-replica steady-state RSS (Pss), and
    whether the probe search results were byte-identical across every
    replica of both paths (they must be: the packed snapshot pins the
    generator config's cache identity).
    """
    import asyncio

    from repro.bio.synthetic import generate_database
    from repro.store.packdb import pack_database

    config = CLUSTER_DB_CONFIG
    with tempfile.TemporaryDirectory() as scratch:
        packed_dir = pack_database(
            generate_database(config),
            Path(scratch) / "packed-db",
            source_config=config,
        )
        materialize_args = _CLUSTER_SERVE_ARGS + (
            "--db-sequences", str(config.sequence_count),
            "--db-seed", str(config.seed),
        )
        packed_args = _CLUSTER_SERVE_ARGS + (
            "--db-path", str(packed_dir),
        )

        async def run() -> tuple[dict, dict]:
            materialize = await _bench_cluster_path(
                materialize_args, replicas
            )
            packed = await _bench_cluster_path(packed_args, replicas)
            return materialize, packed

        materialize, packed = asyncio.run(run())

    identical = (
        len(set(materialize.pop("results") + packed.pop("results"))) == 1
    )
    speedup = (
        materialize["cold_start_s"] / packed["cold_start_s"]
        if packed["cold_start_s"] else 0.0
    )
    rss_values = [
        [value for value in path["rss_per_replica"].values() if value]
        for path in (materialize, packed)
    ]
    if all(rss_values):
        means = [sum(values) / len(values) for values in rss_values]
        reduction = 1.0 - means[1] / means[0] if means[0] else 0.0
        rss_metrics = {
            "mean_rss_materialize": round(means[0]),
            "mean_rss_packed": round(means[1]),
            "rss_reduction": round(reduction, 3),
        }
    else:
        rss_metrics = {"rss_reduction": None}
    return {
        "replicas": replicas,
        "db_sequences": config.sequence_count,
        "materialize": materialize,
        "packed": packed,
        "cold_start_speedup": round(speedup, 2),
        "responses_identical": identical,
        **rss_metrics,
    }


def check_cluster_floors(report: dict[str, Any]) -> list[str]:
    """Floors for the packed-database serving path (``--check``).

    Reads the report's top-level ``cluster`` section (written by
    ``repro bench --cluster``); reports without one pass vacuously, as
    does the RSS gate on platforms where RSS could not be read.  The
    comparison is same-machine back-to-back, so no speed normalization
    applies.
    """
    cluster = report.get("cluster")
    if not isinstance(cluster, dict):
        return []
    failures = []
    speedup = float(cluster.get("cold_start_speedup") or 0.0)
    if speedup < CLUSTER_COLD_START_FLOOR:
        failures.append(
            f"cluster: packed-database cold start only {speedup:.2f}x "
            f"faster than materialize-per-replica (floor "
            f"{CLUSTER_COLD_START_FLOOR:.1f}x)"
        )
    reduction = cluster.get("rss_reduction")
    if reduction is not None and (
        float(reduction) < CLUSTER_RSS_REDUCTION_FLOOR
    ):
        failures.append(
            f"cluster: packed-database replicas carry only "
            f"{float(reduction):.0%} less RSS than materialized ones "
            f"(floor {CLUSTER_RSS_REDUCTION_FLOOR:.0%})"
        )
    if not cluster.get("responses_identical", True):
        failures.append(
            "cluster: packed and materialized replicas returned "
            "different search results — the packed snapshot broke "
            "byte-identity"
        )
    return failures


def format_report(report: dict[str, Any]) -> str:
    """Human-readable summary of a benchmark report."""
    lines = [
        f"benchmark ({report['mode']}, workload {report['workload']}):"
    ]
    for name, metrics in report["metrics"].items():
        speedup = report["speedup_vs_reference"].get(name)
        versus = (
            f"{speedup:.2f}x pre-rework" if speedup is not None
            else "no pre-rework reference"
        )
        lines.append(
            f"  {name:18s} {metrics['ips']:>10,} instr/s  "
            f"(best of {metrics['repeats']}, {versus})"
        )
        for breakdown in ("per_workload", "per_config"):
            for label, sub in metrics.get(breakdown, {}).items():
                lines.append(
                    f"    {label:16s} {sub['ips']:>10,} instr/s"
                )
    decode = report.get("decode_plane")
    if isinstance(decode, dict):
        lines.append(
            f"decode plane (Fig. 8 paired traces, best of "
            f"{decode['repeats']}):"
        )
        for label, sub in decode["per_workload"].items():
            lines.append(
                f"  {label:18s} {sub['ips']:>10,} instr/s  "
                f"{sub['kept_bytes_per_instruction']:6.1f} B/instr kept, "
                f"{sub['peak_bytes_per_instruction']:6.1f} peak"
            )
    if isinstance(report.get("cluster"), dict):
        lines.append(format_cluster(report["cluster"]))
    return "\n".join(lines)


def format_cluster(cluster: dict[str, Any]) -> str:
    """Human-readable summary of one cluster benchmark section."""
    lines = [
        f"cluster ({cluster['replicas']} replicas, "
        f"{cluster['db_sequences']:,}-sequence database):"
    ]
    for label in ("materialize", "packed"):
        path = cluster[label]
        rss = [v for v in path["rss_per_replica"].values() if v]
        shown = (
            f"{sum(rss) / len(rss) / 1e6:,.0f} MB/replica" if rss
            else "unavailable"
        )
        lines.append(
            f"  {label:12s} cold start {path['cold_start_s']:6.2f}s, "
            f"steady-state RSS {shown}"
        )
    reduction = cluster.get("rss_reduction")
    lines.append(
        f"  packed snapshot: {cluster['cold_start_speedup']:.2f}x faster "
        "cold start, "
        + (f"{reduction:.0%} less RSS" if reduction is not None
           else "RSS n/a")
        + (", responses byte-identical"
           if cluster.get("responses_identical")
           else ", RESPONSES DIFFER")
    )
    return "\n".join(lines)


def write_report(report: dict[str, Any], path: str) -> None:
    """Write the report as stable, diffable JSON.

    A top-level section the file already holds and this report did not
    measure is carried over: a core-only run keeps the recorded
    ``cluster`` section, and a cluster-only run keeps ``metrics`` and
    the reference speedups.
    """
    try:
        with open(path, encoding="utf-8") as stream:
            previous = json.load(stream)
    except (OSError, ValueError):
        previous = None
    if isinstance(previous, dict):
        report = {**previous, **report}
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(report, stream, indent=2, sort_keys=True)
        stream.write("\n")
