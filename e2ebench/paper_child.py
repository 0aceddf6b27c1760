"""One regeneration of every paper table and figure, in a fresh process.

Run by ``paper.py``, never by hand: it prints ``ready`` once imports
and the runtime are set up, regenerates every experiment in
``repro.analysis.experiments.EXPERIMENTS`` on ``ExperimentRuntime(jobs=2)``
against ``--cache``, and writes a JSON summary to ``--out``.  With
``--trace`` it wraps each layer's public functions first (see
``tracing.py``) and adds the per-layer split to the summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from repro.analysis.context import ExperimentContext
from repro.analysis.experiments import EXPERIMENTS, run_experiment
from repro.runtime.engine import ExperimentRuntime

#: Pool size: the paper-* workloads run on two worker processes.
JOBS = 2


def install_tracer():
    """Wrap every layer boundary the per-layer split reads."""
    from repro.kernels.base import TracedKernel
    from repro.runtime.cache import ResultCache
    from repro.runtime.executor import PoolExecutor, SerialExecutor
    from repro.workloads.suite import WorkloadSuite
    from tracing import Tracer

    tracer = Tracer()
    tracer.wrap(WorkloadSuite, "count_mix", "kernels.count_mix")
    tracer.wrap(WorkloadSuite, "paired_traces", "kernels.paired_traces")
    tracer.wrap(TracedKernel, "run", "kernels.run")
    tracer.wrap(ExperimentRuntime, "run_workloads", "runtime.run_workloads")
    for executor in (PoolExecutor, SerialExecutor):
        tracer.wrap(executor, "run_many", "runtime.run_many", keep_args=True)
    for method in ("load_result", "load_trace", "load_kernel_run"):
        tracer.wrap(ResultCache, method, "runtime.cache_read")
    tracer.wrap(ResultCache, "store_result", "runtime.store_result",
                keep_args=True)
    for method in ("store_trace", "store_kernel_run"):
        tracer.wrap(ResultCache, method, f"runtime.{method}")
    return tracer


def layer_split(tracer, runtime: ExperimentRuntime) -> dict[str, float]:
    """Per-layer metrics from the spans plus the runtime's task records.

    Work done on pool workers is taken from ``RunMetrics`` records (the
    runtime times each task), never re-timed here.
    """
    records = runtime.metrics.records
    executed = [record for record in records if not record.cache_hit]
    pool_trace_s = sum(
        record.wall_time for record in executed if record.kind == "trace"
    )
    in_process_runs = [
        span for span in tracer.named("kernels.run")
        if not span.under("kernels.count_mix")
        and not span.under("kernels.paired_traces")
    ]
    trace_s = pool_trace_s + sum(span.seconds for span in in_process_runs)
    count_mix_s = tracer.total("kernels.count_mix")
    paired_s = tracer.total("kernels.paired_traces")
    instructions = sum(
        span.value.mix.total for span in tracer.named("kernels.run")
    )
    # Traces generated on pool workers come back through run_workloads;
    # count the ones whose task executed rather than hit the cache.
    pool_generated = {
        record.label.split(":", 1)[1]
        for record in executed if record.kind == "trace"
    }
    for span in tracer.named("runtime.run_workloads"):
        for name, run in span.value.items():
            if name in pool_generated:
                instructions += run.mix.total
    emit_s = trace_s + count_mix_s + paired_s

    simulate_s = sum(
        record.wall_time for record in executed if record.kind == "simulate"
    )
    # store_result(self, digest, result) runs once per executed
    # simulation, in this process, whichever worker computed it.
    results = [span.args[2] for span in tracer.named("runtime.store_result")]
    sim_instructions = sum(result.instructions for result in results)
    sim_cycles = sum(result.cycles for result in results)
    run_many = tracer.named("runtime.run_many")
    tasks = [task for span in run_many for task in span.args[1]]
    pool_s = sum(
        span.seconds for span in run_many if not span.args[0].inline
    )
    pool_work = sum(
        record.wall_time for record in executed if record.where == "pool"
    )
    hits = runtime.metrics.cache_hits
    misses = runtime.metrics.cache_misses
    return {
        "kernels.trace_s": trace_s,
        "kernels.paired_trace_s": paired_s,
        "kernels.count_mix_s": count_mix_s,
        "kernels.instructions": instructions,
        "kernels.emit_ips": instructions / emit_s if emit_s else 0.0,
        "uarch.simulate_s": simulate_s,
        "uarch.sim_instructions": sim_instructions,
        "uarch.sim_cycles": sim_cycles,
        "uarch.sim_ips": sim_instructions / simulate_s if simulate_s else 0.0,
        "uarch.lockstep_batches": sum(
            1 for task in tasks if task.kind == "simulate_batch"
        ),
        "uarch.scalar_runs": sum(
            1 for task in tasks if task.kind == "simulate"
        ),
        "runtime.tasks_executed": len(executed),
        "runtime.cache_hits": hits,
        "runtime.cache_misses": misses,
        "runtime.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "runtime.cache_read_s": tracer.total("runtime.cache_read"),
        "runtime.cache_write_s": sum(
            tracer.total(f"runtime.{method}")
            for method in ("store_result", "store_trace", "store_kernel_run")
        ),
        "runtime.pool_s": pool_s,
        "runtime.pool_busy_share": (
            pool_work / (pool_s * JOBS) if pool_s else 0.0
        ),
        "runtime.retries": runtime.metrics.total_retries,
        "runtime.inline_fallbacks": sum(
            1 for record in executed if record.where == "inline"
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="paper_child.py")
    parser.add_argument("--cache", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--ready-only", action="store_true")
    options = parser.parse_args(argv)

    tracer = install_tracer() if options.trace else None
    runtime = ExperimentRuntime(jobs=JOBS, cache_dir=options.cache)
    context = ExperimentContext(runtime=runtime)
    print("ready", flush=True)
    if options.ready_only:
        runtime.close()
        return 0
    experiments: dict[str, dict] = {}
    try:
        start = time.perf_counter()
        for identifier in EXPERIMENTS:
            began = time.perf_counter()
            try:
                _, report = run_experiment(identifier, context)
            except Exception as error:  # noqa: BLE001 - reported as failed
                experiments[identifier] = {"error": repr(error)}
                continue
            experiments[identifier] = {
                "seconds": time.perf_counter() - began,
                "digest": hashlib.sha256(report.encode()).hexdigest(),
            }
        wall = time.perf_counter() - start
        summary = {
            "wall_s": wall,
            "experiments": experiments,
            "counts": runtime.metrics.counts(),
        }
        if tracer is not None:
            summary["layers"] = layer_split(tracer, runtime)
    finally:
        runtime.close()
    with open(options.out, "w") as handle:
        json.dump(summary, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
