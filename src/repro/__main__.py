"""Command-line entry point: run paper experiments, export traces.

Usage::

    python -m repro list                  # available experiment ids
    python -m repro fig5                  # run one experiment, print report
    python -m repro fig5 --jobs 4         # fan simulations out over 4 workers
    python -m repro table3 fig1 fig2      # run several, in order
    python -m repro trace blast out.npz   # export one workload's trace
    python -m repro cache stats           # persistent result cache usage
    python -m repro cache clean           # drop every cached artifact
    python -m repro store pack-db db/     # zero-copy packed DB snapshot
    python -m repro store verify-db db/   # recheck a snapshot's digest
    python -m repro bench                 # hot-path throughput benchmark
    python -m repro bench --quick --check # fast CI smoke + regression gate
    python -m repro serve --port 7717     # alignment-search service (TCP)
    python -m repro loadgen --requests 50 # benchmark a service (loopback)
    python -m repro cluster up            # replicated serving (router + N)
    python -m repro cluster restart       # zero-downtime rolling restart
    python -m repro lint-trace blast      # static trace invariant check
    python -m repro lint-trace --all -j 4 # trace all in parallel, then lint
    python -m repro lint-code             # repo-specific AST lint (REP0xx)
    python -m repro sweep run SPEC        # run/resume a declarative sweep
    python -m repro sweep status SPEC     # manifest progress (no simulation)
    python -m repro sweep report SPEC     # render text/JSON/HTML report

Experiment-run options:

    --jobs/-j N        worker processes (default 1: serial in-process)
    --cache-dir PATH   persistent result cache (default: $REPRO_CACHE_DIR;
                       unset means an ephemeral per-run cache)
    --report PATH      write a JSON run report (per-task wall time, cache
                       hit/miss counts, retries)
    --task-timeout S   per-task timeout in seconds (default: none)
    --retries N        per-task retry budget before falling back to
                       in-process execution (default 2)
    --strict           lint every trace before caching or simulating it
                       (see docs/verify.md)

Scale with the ``REPRO_SCALE`` environment variable (see README).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.analysis.context import ExperimentContext
from repro.analysis.experiments import EXPERIMENTS, run_experiment
from repro.workloads.suite import scale_factor


def _export_trace(arguments: list[str]) -> int:
    from repro.isa.serialize import save_trace
    from repro.kernels.registry import WORKLOAD_NAMES
    from repro.workloads.suite import WorkloadSuite

    if len(arguments) != 2:
        print("usage: python -m repro trace <workload> <out.npz>",
              file=sys.stderr)
        return 2
    name, path = arguments
    if name not in WORKLOAD_NAMES:
        print(f"unknown workload {name!r}; "
              f"available: {' '.join(WORKLOAD_NAMES)}", file=sys.stderr)
        return 2
    suite = WorkloadSuite()
    trace = suite.trace(name)
    save_trace(trace, path)
    mix = trace.mix()
    print(f"wrote {len(trace)} instructions of {name} to {path} "
          f"(ctrl {mix.control_fraction():.1%}, "
          f"loads {mix.load_fraction():.1%})")
    return 0


def _cache_command(arguments: list[str]) -> int:
    from repro.runtime.cache import ResultCache

    parser = argparse.ArgumentParser(
        prog="python -m repro cache",
        description="Inspect or clear the persistent result cache.",
    )
    parser.add_argument("action", choices=("stats", "clean"))
    parser.add_argument(
        "--cache-dir", default=os.environ.get("REPRO_CACHE_DIR")
    )
    try:
        options = parser.parse_args(arguments)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    if not options.cache_dir:
        print("no cache directory: pass --cache-dir or set REPRO_CACHE_DIR",
              file=sys.stderr)
        return 2
    cache = ResultCache(options.cache_dir)
    if options.action == "stats":
        stats = cache.stats()
        print(f"cache {cache.root}: {stats.results} simulation results, "
              f"{stats.runs} kernel runs, {stats.traces} traces, "
              f"{stats.total_bytes / 1e6:.1f} MB")
    else:
        removed = cache.clean()
        print(f"cache {cache.root}: removed {removed.entries} artifacts "
              f"({removed.total_bytes / 1e6:.1f} MB)")
    return 0


def _store_command(arguments: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro store",
        description="Packed (mmap-able) database snapshots "
        "(see docs/storage.md).",
    )
    commands = parser.add_subparsers(dest="action", required=True)
    pack = commands.add_parser(
        "pack-db",
        help="snapshot a synthetic database into the zero-copy packed "
        "format replicas mmap (serve --db-path)",
    )
    pack.add_argument("out", help="output directory for the snapshot")
    pack.add_argument(
        "--db-sequences", type=int, default=None,
        help="synthetic database size in sequences (default: serve's)",
    )
    pack.add_argument(
        "--db-seed", type=int, default=None,
        help="synthetic database seed (default: serve's)",
    )
    pack.add_argument(
        "--overwrite", action="store_true",
        help="replace an existing snapshot at OUT",
    )
    verify = commands.add_parser(
        "verify-db",
        help="recompute a snapshot's content digest against its header",
    )
    verify.add_argument("path", help="packed database directory")
    try:
        options = parser.parse_args(arguments)
    except SystemExit as exit_:
        return int(exit_.code or 0)

    if options.action == "pack-db":
        import dataclasses

        from repro.bio.synthetic import generate_database
        from repro.serve.server import DEFAULT_DATABASE
        from repro.store.packdb import pack_database

        overrides = {}
        if options.db_sequences is not None:
            overrides["sequence_count"] = options.db_sequences
        if options.db_seed is not None:
            overrides["seed"] = options.db_seed
        config = dataclasses.replace(DEFAULT_DATABASE, **overrides)
        database = generate_database(config)
        try:
            out = pack_database(
                database, options.out,
                source_config=config, overwrite=options.overwrite,
            )
        except FileExistsError:
            print(f"{options.out} already holds a packed database; "
                  "pass --overwrite to replace it", file=sys.stderr)
            return 2
        stats = database.stats()
        print(f"packed {stats.sequence_count} sequences "
              f"({stats.residue_count} residues) into {out}")
        return 0
    from repro.store.packdb import PackedDatabaseError, verify_packed

    try:
        header = verify_packed(options.path)
    except PackedDatabaseError as error:
        print(f"CORRUPT {error}", file=sys.stderr)
        return 1
    print(f"ok {options.path}: {header['sequence_count']} sequences, "
          f"digest {header['content_digest']}")
    return 0


def _bench_command(arguments: list[str]) -> int:
    from repro.bench import format_report, run_bench, write_report

    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Measure trace-generation, trace-load, and "
        "simulation throughput (best-of-N).",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller slice and fewer repetitions (CI smoke)",
    )
    parser.add_argument(
        "--out", default=None, help="write the JSON report here"
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the full JSON report (including the per-workload "
        "trace_generation breakdown) instead of the summary table",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the committed BENCH_core.json with a "
        "tight threshold (exit non-zero on a >25%% throughput drop "
        "after normalizing for machine speed)",
    )
    parser.add_argument(
        "--cluster", action="store_true",
        help="also benchmark a 3-replica cluster on a packed "
        "(mmap-shared) database vs materialize-per-replica: fleet "
        "cold start, per-replica RSS, response byte-identity",
    )
    parser.add_argument(
        "--cluster-only", action="store_true",
        help="run only the cluster benchmark (skips the core metrics)",
    )
    try:
        options = parser.parse_args(arguments)
    except SystemExit as exit_:
        return int(exit_.code or 0)

    if options.cluster_only:
        from repro.bench import bench_cluster, format_cluster

        cluster = bench_cluster()
        if options.json:
            print(json.dumps(cluster, indent=2, sort_keys=True))
        else:
            print(format_cluster(cluster))
        if options.out:
            write_report({"cluster": cluster}, options.out)
            print(f"wrote {options.out}")
        if options.check:
            from repro.bench import check_cluster_floors

            failures = check_cluster_floors({"cluster": cluster})
            for failure in failures:
                print(f"REGRESSION {failure}", file=sys.stderr)
            if failures:
                return 1
            print("cluster floors hold (cold start, RSS, byte-identity)")
        return 0

    report = run_bench(quick=options.quick)
    if options.cluster:
        from repro.bench import bench_cluster

        report["cluster"] = bench_cluster()
    if options.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_report(report))
    if options.out:
        write_report(report, options.out)
        print(f"wrote {options.out}")
    if options.check:
        from repro.bench import (
            COMMITTED_BASELINE,
            check_baseline,
            check_cluster_floors,
        )

        warnings: list[str] = []
        failures = check_baseline(report, warnings=warnings)
        failures += check_cluster_floors(report)
        for warning in warnings:
            print(f"WARNING {warning}", file=sys.stderr)
        for failure in failures:
            print(f"REGRESSION {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"no regression beyond 25% vs {COMMITTED_BASELINE}")
    return 0


def _lint_trace_command(arguments: list[str]) -> int:
    import re
    import zipfile

    from repro.isa.serialize import load_trace
    from repro.kernels.registry import WORKLOAD_NAMES
    from repro.runtime.engine import ExperimentRuntime
    from repro.runtime.keys import trace_digest
    from repro.verify import TRACE_RULES, lint_trace
    from repro.workloads.suite import WorkloadSuite

    parser = argparse.ArgumentParser(
        prog="python -m repro lint-trace",
        description="Statically verify trace/ISA invariants "
        "(TR001-TR011, see docs/verify.md) over workload traces or "
        ".npz archives, without running the simulator.",
    )
    parser.add_argument(
        "targets", nargs="*",
        help=f"workload names ({', '.join(WORKLOAD_NAMES)}) or .npz paths",
    )
    parser.add_argument(
        "--all", action="store_true",
        help="lint every workload in the suite",
    )
    parser.add_argument("--jobs", "-j", type=int, default=1)
    parser.add_argument("--json", action="store_true", dest="as_json")
    parser.add_argument(
        "--no-roundtrip", action="store_true",
        help="skip the TR009 serialize round-trip (faster)",
    )
    try:
        options = parser.parse_args(arguments)
    except SystemExit as exit_:
        return int(exit_.code or 0)

    targets = list(options.targets)
    if options.all:
        targets.extend(
            name for name in WORKLOAD_NAMES if name not in targets
        )
    if not targets:
        parser.print_usage(sys.stderr)
        print("no targets: name workloads, paths, or pass --all",
              file=sys.stderr)
        return 2
    names = [t for t in targets if t in WORKLOAD_NAMES]
    paths = [t for t in targets if t not in WORKLOAD_NAMES]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print(f"unknown workload or missing file: {', '.join(missing)}; "
              f"workloads: {' '.join(WORKLOAD_NAMES)}", file=sys.stderr)
        return 2

    content_address = re.compile(r"^[0-9a-f]{16,64}$")
    archives = []
    for path in paths:
        stem = os.path.basename(path).split(".")[0]
        expected = stem if content_address.match(stem) else None
        try:
            archives.append((load_trace(path), expected))
        except (OSError, EOFError, KeyError, ValueError,
                zipfile.BadZipFile) as error:
            print(f"error: cannot read trace archive {path}: {error}",
                  file=sys.stderr)
            return 2

    roundtrip = not options.no_roundtrip
    suite = WorkloadSuite()
    if names:
        # Trace generation fans out over the pool; the rules run here.
        with ExperimentRuntime(jobs=options.jobs) as runtime:
            runtime.run_workloads(suite, tuple(names))
    traces = []
    for name in names:
        trace = suite.trace(name)
        traces.append((trace, trace_digest(trace)))
    traces.extend(archives)
    reports = [
        lint_trace(
            trace, expected_digest=expected, include_roundtrip=roundtrip
        ).to_dict()
        for trace, expected in traces
    ]
    failed = [report for report in reports if not report["ok"]]
    if options.as_json:
        print(json.dumps({
            "rules": TRACE_RULES,
            "traces": reports,
            "ok": not failed,
        }, indent=2))
    else:
        for report in reports:
            lines = [f"trace {report['trace']} "
                     f"({report['instructions']} instructions)"]
            for check in report["checks"]:
                status = "ok" if check["passed"] else "FAIL"
                lines.append(
                    f"  {check['rule']}  {check['title']:<28} {status}"
                )
                for violation in check["violations"]:
                    where = violation["index"]
                    anchor = "" if where is None else f" @ {where}"
                    count = violation["count"]
                    extra = "" if count <= 1 else f" ({count} instructions)"
                    lines.append(
                        f"         {violation['rule']}{anchor}: "
                        f"{violation['message']}{extra}"
                    )
            print("\n".join(lines))
        clean = len(reports) - len(failed)
        print(f"{clean}/{len(reports)} traces clean")
    return 1 if failed else 0


def _lint_code_command(arguments: list[str]) -> int:
    from pathlib import Path

    from repro.verify.repolint import RULES, lint_paths, stale_suppressions

    parser = argparse.ArgumentParser(
        prog="python -m repro lint-code",
        description=f"Repo-specific AST lint ({', '.join(RULES)}; see "
        "docs/verify.md) over src/repro.",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories (default: all of src/repro)",
    )
    parser.add_argument("--json", action="store_true", dest="as_json")
    parser.add_argument(
        "--stale-suppressions", action="store_true",
        help="audit repolint disable comments instead: flag any that "
        "no longer suppress a finding",
    )
    try:
        options = parser.parse_args(arguments)
    except SystemExit as exit_:
        return int(exit_.code or 0)

    if options.stale_suppressions:
        stale = stale_suppressions()
        if options.as_json:
            print(json.dumps({
                "ok": not stale,
                "stale": [
                    {"path": v.path, "line": v.line, "message": v.message}
                    for v in stale
                ],
            }, indent=2))
        else:
            for violation in stale:
                print(violation)
            print(f"{len(stale)} stale suppression(s)"
                  if stale else "suppressions: all live")
        return 1 if stale else 0

    paths = [Path(p) for p in options.paths] or None
    violations = lint_paths(paths)
    if options.as_json:
        print(json.dumps({
            "rules": RULES,
            "ok": not violations,
            "violations": [
                {
                    "rule": v.rule,
                    "path": v.path,
                    "line": v.line,
                    "message": v.message,
                }
                for v in violations
            ],
        }, indent=2))
    else:
        for violation in violations:
            print(violation)
        print(f"{len(violations)} violation(s)"
              if violations else "repolint: clean")
    return 1 if violations else 0


def _sweep_command(arguments: list[str]) -> int:
    from pathlib import Path

    from repro.runtime.engine import ExperimentRuntime
    from repro.sweep import (
        SweepSpecError,
        load_spec,
        render_report,
        report_data,
        run_sweep,
        sweep_status,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description="Declarative sweep campaigns: run/resume a spec "
        "grid, inspect its manifest, render its report "
        "(see docs/sweeps.md; committed specs in examples/sweeps/).",
    )
    parser.add_argument("action", choices=("run", "status", "report"))
    parser.add_argument("spec", help="sweep spec (.toml, .yaml/.yml, .json)")
    parser.add_argument("--jobs", "-j", type=int, default=1)
    parser.add_argument(
        "--cache-dir", default=os.environ.get("REPRO_CACHE_DIR"),
        help="persistent result cache; the sweep manifest defaults to "
        "<cache-dir>/sweeps",
    )
    parser.add_argument(
        "--state-dir", default=None,
        help="where sweep manifests live (default: <cache-dir>/sweeps)",
    )
    parser.add_argument(
        "--max-points", type=int, default=None,
        help="execute at most N pending points this run (partial runs "
        "resume exactly where they stopped)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "html"), default="text",
        help="report format (report action; default text)",
    )
    parser.add_argument(
        "--out", default=None,
        help="write the report here instead of stdout (report action)",
    )
    parser.add_argument(
        "--summary-json", default=None,
        help="write the run summary (executed/resumed/remaining counts) "
        "as JSON here (run action)",
    )
    parser.add_argument("--task-timeout", type=float, default=None)
    parser.add_argument("--retries", type=int, default=2)
    try:
        options = parser.parse_args(arguments)
    except SystemExit as exit_:
        return int(exit_.code or 0)

    try:
        spec = load_spec(options.spec)
    except SweepSpecError as error:
        print(error, file=sys.stderr)
        return 2

    state_dir = options.state_dir
    if state_dir is None and options.cache_dir:
        state_dir = str(Path(options.cache_dir) / "sweeps")

    if options.action in {"status", "report"}:
        if state_dir is None:
            print("no sweep state: pass --state-dir or --cache-dir "
                  "(or set REPRO_CACHE_DIR)", file=sys.stderr)
            return 2
        if options.action == "status":
            status = sweep_status(spec, state_dir)
            print(f"sweep {status['sweep']} ({status['spec_digest']}): "
                  f"{status['recorded']}/{status['points']} points recorded"
                  + ("" if status["complete"]
                     else f", {status['missing']} missing"))
            return 0 if status["complete"] else 1
        rendered = render_report(report_data(spec, state_dir), options.format)
        if options.out:
            Path(options.out).write_text(rendered)
            print(f"wrote {options.out}")
        else:
            print(rendered, end="")
        return 0

    runtime = ExperimentRuntime(
        jobs=options.jobs,
        cache_dir=options.cache_dir,
        task_timeout=options.task_timeout,
        retries=options.retries,
    )
    try:
        run = run_sweep(
            spec, runtime,
            state_dir=state_dir,
            max_points=options.max_points,
        )
    finally:
        runtime.close()
    summary = run.summary()
    print(f"sweep {summary['sweep']} ({summary['spec_digest']}): "
          f"{summary['executed']} executed, {summary['resumed']} resumed"
          + (f", {summary['invalidated']} invalidated"
             if summary["invalidated"] else "")
          + (f", {summary['remaining']} remaining"
             if summary["remaining"] else " — complete"))
    if not runtime.persistent:
        print("note: ephemeral cache (no --cache-dir); this run cannot "
              "be resumed", file=sys.stderr)
    if options.summary_json:
        Path(options.summary_json).write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
    return 0


def _run_experiments(arguments: list[str]) -> int:
    from repro.runtime.engine import ExperimentRuntime

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run paper experiments (see `python -m repro list`).",
    )
    parser.add_argument("experiments", nargs="+")
    parser.add_argument("--jobs", "-j", type=int, default=1)
    parser.add_argument(
        "--cache-dir", default=os.environ.get("REPRO_CACHE_DIR")
    )
    parser.add_argument("--report", default=None)
    parser.add_argument("--task-timeout", type=float, default=None)
    parser.add_argument("--retries", type=int, default=2)
    parser.add_argument("--strict", action="store_true")
    try:
        options = parser.parse_args(arguments)
    except SystemExit as exit_:
        return int(exit_.code or 0)

    unknown = [
        name for name in options.experiments if name not in EXPERIMENTS
    ]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {' '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2

    runtime = ExperimentRuntime(
        jobs=options.jobs,
        cache_dir=options.cache_dir,
        task_timeout=options.task_timeout,
        retries=options.retries,
        strict=options.strict,
    )
    context = ExperimentContext(runtime=runtime)
    try:
        for identifier in options.experiments:
            before = runtime.metrics.counts()
            start = time.perf_counter()
            _, report = run_experiment(identifier, context)
            elapsed = time.perf_counter() - start
            after = runtime.metrics.counts()
            hits = after["cache_hits"] - before["cache_hits"]
            misses = after["cache_misses"] - before["cache_misses"]
            print(report)
            print(f"[{identifier} completed in {elapsed:.1f}s | "
                  f"cache: {hits} hits, {misses} misses]\n")
        if options.report:
            runtime.metrics.write_report(
                options.report,
                jobs=runtime.jobs,
                cache_dir=options.cache_dir,
            )
    finally:
        runtime.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    if not arguments or arguments[0] in {"-h", "--help"}:
        print(__doc__)
        return 0
    try:
        scale_factor()
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if arguments[0] == "list":
        for identifier in EXPERIMENTS:
            print(identifier)
        return 0
    if arguments[0] == "trace":
        return _export_trace(arguments[1:])
    if arguments[0] == "cache":
        return _cache_command(arguments[1:])
    if arguments[0] == "store":
        return _store_command(arguments[1:])
    if arguments[0] == "bench":
        return _bench_command(arguments[1:])
    if arguments[0] == "serve":
        from repro.serve.server import main_serve

        return main_serve(arguments[1:])
    if arguments[0] == "loadgen":
        from repro.serve.loadgen import main_loadgen

        return main_loadgen(arguments[1:])
    if arguments[0] == "cluster":
        from repro.cluster.cli import main_cluster

        return main_cluster(arguments[1:])
    if arguments[0] == "lint-trace":
        return _lint_trace_command(arguments[1:])
    if arguments[0] == "lint-code":
        return _lint_code_command(arguments[1:])
    if arguments[0] == "sweep":
        return _sweep_command(arguments[1:])
    return _run_experiments(arguments)


if __name__ == "__main__":
    raise SystemExit(main())
