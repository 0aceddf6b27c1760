"""The experiment runtime: executor + persistent cache + metrics.

:class:`ExperimentRuntime` is the substrate the analysis layer runs on.
It decomposes campaign work into ``trace(workload)`` and
``simulate(trace, config)`` tasks, resolves each against the
content-addressed cache first, and fans the misses out on the
configured executor.  Without an explicit ``cache_dir`` the cache lives
in a temporary directory for the runtime's lifetime (still used to ship
traces to workers and to answer repeated points within the run); with
one, results survive across processes and a warm rerun executes
nothing.  ``ExperimentRuntime()`` — serial executor, temporary cache —
is what a bare :class:`~repro.analysis.context.ExperimentContext` runs
on.
"""

from __future__ import annotations

import tempfile
import time

from repro.align.batch import SearchParams
from repro.align.types import ShardScan
from repro.bio.sequence import Sequence
from repro.isa.trace import InstructionMix, Trace
from repro.kernels.base import KernelRun
from repro.runtime.cache import ResultCache
from repro.runtime.executor import (
    PoolExecutor,
    SerialExecutor,
    TaskError,
    TaskOutcome,
)
from repro.runtime.keys import (
    code_salt,
    search_shard_key,
    simulate_key,
    trace_digest,
    trace_task_key,
)
from repro.runtime.metrics import RunMetrics
from repro.runtime.tasks import Task
from repro.uarch.config import ProcessorConfig
from repro.uarch.results import SimulationResult
from repro.workloads.suite import WorkloadSuite

#: A simulate request: (trace, config, track_occupancy).
SimRequest = tuple[Trace, ProcessorConfig, bool]

#: Most configurations one ``simulate``/``sweep`` task runs over its
#: trace.  Grouping pays because the worker loads and decodes the trace
#: once per task; the cap keeps enough tasks in flight to fill the pool.
BATCH_WIDTH = 8

#: A search-shard request:
#: (params, query, database_config, shard_index, shard_count).
SearchRequest = tuple[SearchParams, Sequence, object, int, int]

#: ``code_salt()`` values whose package linted clean in this process.
_linted_salts: set[str] = set()


def _lint_package_once() -> None:
    """Raise RepoLintError if the package has findings (once per salt)."""
    salt = code_salt()
    if salt in _linted_salts:
        return
    from repro.verify.repolint import RepoLintError, lint_paths

    violations = lint_paths()
    if violations:
        raise RepoLintError(violations)
    _linted_salts.add(salt)


class ExperimentRuntime:
    """Cached, parallel execution of trace and simulate tasks."""

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: str | None = None,
        *,
        task_timeout: float | None = None,
        retries: int = 2,
        fault_hook=None,
        executor=None,
        metrics: RunMetrics | None = None,
        strict: bool = False,
    ) -> None:
        #: Refuse to cache or simulate traces that fail lint
        #: (repro.verify.tracelint); see docs/verify.md.
        self.strict = strict
        self.metrics = metrics or RunMetrics()
        self.persistent = cache_dir is not None
        self._temporary = None
        if cache_dir is None:
            self._temporary = tempfile.TemporaryDirectory(
                prefix="repro-runtime-"
            )
            cache_dir = self._temporary.name
        self.cache = ResultCache(cache_dir)
        if strict:
            # Strict runs also prove the *code* sound before spending
            # compute on it: RepoLint (docs/verify.md) runs over the
            # package once per code_salt() and raises RepoLintError on
            # any finding.  A task that reads the wall clock, mutates
            # another module's globals or reads an unkeyed environment
            # variable would poison every result this runtime caches.
            _lint_package_once()
        if executor is not None:
            self.executor = executor
        elif jobs > 1:
            self.executor = PoolExecutor(
                jobs,
                task_timeout=task_timeout,
                retries=retries,
                fault_hook=fault_hook,
            )
        else:
            self.executor = SerialExecutor()
        # The one cache of search-shard scans: serving workloads probe
        # the same digests thousands of times within a replica's life.
        self._scan_memo: dict[str, ShardScan] = {}
        self._scan_memo_cap = 4096

    @property
    def jobs(self) -> int:
        """Worker-process count (1 for the serial executor)."""
        return getattr(self.executor, "jobs", 1)

    def close(self) -> None:
        """Shut workers down and drop an ephemeral cache directory."""
        self.executor.close()
        if self._temporary is not None:
            self._temporary.cleanup()
            self._temporary = None

    def __enter__(self) -> "ExperimentRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- simulate tasks -----------------------------------------------------

    def simulate(
        self,
        trace: Trace,
        config: ProcessorConfig,
        track_occupancy: bool = False,
    ) -> SimulationResult:
        """One cached/executed simulation."""
        return self.simulate_many([(trace, config, track_occupancy)])[0]

    def simulate_many(
        self, requests: list[SimRequest]
    ) -> list[SimulationResult]:
        """Resolve a batch of simulations, fanning misses out in parallel.

        Duplicate requests (same trace content, config, and occupancy
        flag) execute once; results come back in request order.  Misses
        sharing a trace and occupancy flag execute as ``simulate`` tasks
        of up to :data:`BATCH_WIDTH` configurations, so a worker loads
        and decodes the trace once per task rather than once per config.
        """
        return self._resolve(requests, sweep=False)[0]

    # -- sweep point tasks --------------------------------------------------

    def sweep_points(
        self, requests: list[SimRequest]
    ) -> tuple[list[SimulationResult], list[bool]]:
        """Resolve a batch of sweep grid points (cache-first, parallel).

        Like :meth:`simulate_many` — duplicates collapse, results come
        back in request order, misses sharing a trace group into
        tasks, and the cache addresses are the same
        :func:`~repro.runtime.keys.simulate_key` digests, so sweep
        points and ad-hoc figure runs share entries byte-for-byte.  The
        differences: ``sweep`` workers store their results into the
        persistent cache *themselves*, so a point survives even if this
        orchestrating process dies before the batch returns; and
        alongside the results comes one flag per request, true where
        the result came from the cache rather than a simulation.
        """
        return self._resolve(requests, sweep=True)

    def _resolve(
        self, requests: list[SimRequest], *, sweep: bool
    ) -> tuple[list[SimulationResult], list[bool]]:
        metric_kind = "sweep" if sweep else "simulate"
        requests = [
            (trace, config, bool(occupancy))
            for trace, config, occupancy in requests
        ]
        results: list[SimulationResult | None] = [None] * len(requests)
        cached_flags = [False] * len(requests)
        # Cache misses in first-seen order, each with every request
        # index it answers.
        miss_indices: dict[str, list[int]] = {}
        for index, (trace, config, occupancy) in enumerate(requests):
            digest = simulate_key(trace, config, occupancy)
            if digest in miss_indices:
                miss_indices[digest].append(index)
                continue
            start = time.perf_counter()
            cached = self.cache.load_result(digest)
            if cached is not None:
                results[index] = cached
                cached_flags[index] = True
                self.metrics.record_hit(
                    metric_kind,
                    _simulate_label(trace, config, occupancy),
                    time.perf_counter() - start,
                )
            else:
                miss_indices[digest] = [index]

        groups = _batch_groups(requests, miss_indices)
        tasks = [self._simulate_task(group, sweep) for group in groups]
        outcomes = self.executor.run_many(tasks)
        for (digests, trace, configs, occupancy), outcome in zip(
            groups, outcomes
        ):
            # One metrics record per point (same labels as a cache hit,
            # wall time split across the task, retries charged once).
            share = outcome.wall_time / len(digests)
            for position, (digest, config, result) in enumerate(
                zip(digests, configs, outcome.value)
            ):
                self.metrics.record_executed(
                    metric_kind,
                    _simulate_label(trace, config, occupancy),
                    share,
                    outcome.retries if position == 0 else 0,
                    outcome.where,
                )
                if not sweep:
                    # A sweep worker already stored it.
                    self.cache.store_result(digest, result)
                for index in miss_indices[digest]:
                    results[index] = result
        return results, cached_flags  # type: ignore[return-value]

    def _simulate_task(self, group: _Group, sweep: bool) -> Task:
        digests, trace, configs, occupancy = group
        if self.executor.inline:
            if self.strict:
                from repro.verify import check_trace

                check_trace(trace)
            trace_ref: object = trace
        else:
            trace_ref = str(self.cache.store_trace(
                trace_digest(trace), trace, strict=self.strict
            ))
        kind = "sweep" if sweep else "simulate"
        payload: tuple = (trace_ref, tuple(configs), occupancy)
        if sweep:
            # A sweep task is its simulate task plus where the worker
            # stores the results itself.
            payload += (str(self.cache.root), tuple(digests))
        label = f"{kind}:{trace.name}@{len(configs)} configs"
        return Task(kind=kind, payload=payload, label=label)

    # -- search shard tasks -------------------------------------------------

    def search_shards(
        self, requests: list[SearchRequest]
    ) -> list[ShardScan]:
        """Resolve a batch of per-query shard scans (the serving hot path).

        Each request is ``(params, query, database_config, shard_index,
        shard_count)``; results come back in request order.  Duplicate
        requests execute once, cached scans are served from the
        in-process memo, and misses that share ``(params, shard)``
        coordinates are grouped into one multi-query task so BLAST
        batches share a single pass over the shard and workers amortize
        database generation and engine compilation.
        """
        results: list[ShardScan | None] = [None] * len(requests)
        digest_indices: dict[str, list[int]] = {}
        groups: dict[tuple, list[str]] = {}
        for index, request in enumerate(requests):
            params, query, database_config, shard_index, shard_count = request
            digest = search_shard_key(
                params.key(), query.text, database_config,
                shard_index, shard_count,
            )
            if digest in digest_indices:
                # Duplicate within this call: share the first
                # occurrence's result (already filled on the hit path;
                # the miss path fills every recorded index later).
                digest_indices[digest].append(index)
                results[index] = results[digest_indices[digest][0]]
                continue
            start = time.perf_counter()
            scan = self._scan_memo.get(digest)
            if scan is not None:
                digest_indices[digest] = [index]
                results[index] = scan
                self.metrics.record_hit(
                    "search",
                    _search_label(params, 1, shard_index, shard_count),
                    time.perf_counter() - start,
                )
                continue
            digest_indices[digest] = [index]
            group = (
                params.key(), repr(database_config),
                shard_index, shard_count,
            )
            groups.setdefault(group, []).append(digest)

        tasks: list[Task] = []
        ordered_groups: list[list[str]] = []
        for group, digests in groups.items():
            params_key, _, shard_index, shard_count = group
            first = requests[digest_indices[digests[0]][0]]
            database_config = first[2]
            queries = tuple(
                (request[1].identifier, request[1].text)
                for request in (
                    requests[digest_indices[digest][0]] for digest in digests
                )
            )
            tasks.append(Task(
                kind="search_shard",
                payload=(
                    params_key, queries, database_config, shard_index,
                    shard_count,
                ),
                label=_search_label(
                    SearchParams.from_key(params_key), len(queries),
                    shard_index, shard_count,
                ),
            ))
            ordered_groups.append(digests)
        outcomes = self.executor.run_many(tasks)
        for digests, task, outcome in zip(ordered_groups, tasks, outcomes):
            self.metrics.record_executed(
                "search", task.label, outcome.wall_time,
                outcome.retries, outcome.where,
            )
            for digest, scan_dict in zip(digests, outcome.value["scans"]):
                scan = ShardScan.from_dict(scan_dict)
                self._remember_scan(digest, scan)
                for index in digest_indices[digest]:
                    results[index] = scan
        return results  # type: ignore[return-value]

    def precompute_words(
        self, threshold: int | None = None, word_size: int | None = None
    ) -> None:
        """Expand the full BLAST neighborhood table in every worker.

        One task per worker (the executor assigns pending tasks to idle
        workers in order, so ``jobs`` identical tasks land one per
        process).  Afterwards query compilation in the scan path costs
        memo lookups instead of branch-and-bound expansions — the
        serving layer calls this once at startup.
        """
        from repro.align.blast.wordfinder import (
            DEFAULT_THRESHOLD,
            DEFAULT_WORD_SIZE,
        )

        payload = (
            DEFAULT_THRESHOLD if threshold is None else threshold,
            DEFAULT_WORD_SIZE if word_size is None else word_size,
        )
        tasks = [
            Task(
                kind="precompute_words",
                payload=payload,
                label=f"precompute:words@T{payload[0]}",
            )
            for _ in range(self.jobs)
        ]
        outcomes = self.executor.run_many(tasks)
        for task, outcome in zip(tasks, outcomes):
            self.metrics.record_executed(
                "search", task.label, outcome.wall_time,
                outcome.retries, outcome.where,
            )

    def _remember_scan(self, digest: str, scan: ShardScan) -> None:
        if len(self._scan_memo) >= self._scan_memo_cap:
            self._scan_memo.clear()
        self._scan_memo[digest] = scan

    # -- trace tasks --------------------------------------------------------

    def run_workloads(
        self,
        suite: WorkloadSuite,
        names: tuple[str, ...] | None = None,
        budget: int | None = None,
    ) -> dict[str, KernelRun]:
        """Generate (or recall) traced runs for many workloads at once.

        Fills the suite's in-process trace cache, so subsequent
        ``suite.trace(name)`` / ``suite.run(name)`` calls are hits.
        """
        names = tuple(names) if names is not None else suite.names
        budget = suite.trace_budget if budget is None else budget
        runs: dict[str, KernelRun] = {}
        misses: list[tuple[str, str]] = []
        tasks: list[Task] = []
        for name in names:
            cached = suite.cached_run(name, budget)
            if cached is not None:
                runs[name] = cached
                continue
            digest = trace_task_key(
                name, budget, suite.database_config, suite.query
            )
            start = time.perf_counter()
            from_disk = self.cache.load_kernel_run(digest, strict=self.strict)
            if from_disk is not None:
                runs[name] = from_disk
                suite.install_run(name, from_disk, budget)
                self.metrics.record_hit(
                    "trace", f"trace:{name}", time.perf_counter() - start
                )
                continue
            misses.append((name, digest))
            tasks.append(Task(
                kind="trace",
                payload=(
                    name, budget, suite.database_config, suite.query,
                    str(self.cache.root),
                ),
                label=f"trace:{name}",
            ))
        outcomes = self.executor.run_many(tasks)
        for (name, digest), outcome in zip(misses, outcomes):
            runs[name] = self._install_trace_outcome(
                suite, name, budget, digest, outcome
            )
        return runs

    def _install_trace_outcome(
        self,
        suite: WorkloadSuite,
        name: str,
        budget: int,
        digest: str,
        outcome: TaskOutcome,
    ) -> KernelRun:
        summary = outcome.value
        trace = self.cache.load_trace(
            summary["trace_digest"], strict=self.strict
        )
        if trace is None:
            raise TaskError(
                f"trace task for {name!r} reported digest "
                f"{summary['trace_digest']} but the cache has no such trace"
            )
        run = KernelRun(
            kernel_name=summary["kernel_name"],
            mix=InstructionMix(counts=tuple(summary["mix_counts"])),
            trace=trace,
            scores=dict(summary["scores"]),
            truncated=summary["truncated"],
            subjects_processed=summary["subjects_processed"],
        )
        self.cache.store_kernel_run(digest, run, summary["trace_digest"])
        self.metrics.record_executed(
            "trace", f"trace:{name}", outcome.wall_time,
            outcome.retries, outcome.where,
        )
        suite.install_run(name, run, budget)
        return run


def _search_label(
    params: SearchParams, queries: int, shard_index: int, shard_count: int
) -> str:
    return (
        f"search:{params.algorithm}x{queries}"
        f"@shard{shard_index}/{shard_count}"
    )


def _simulate_label(
    trace: Trace, config: ProcessorConfig, occupancy: bool
) -> str:
    suffix = "+occ" if occupancy else ""
    return f"simulate:{trace.name}@{config.name}/{config.memory.name}{suffix}"


#: A group of cache misses executed as one task:
#: (digests, trace, configs, track_occupancy).
_Group = tuple[list[str], Trace, list[ProcessorConfig], bool]


def _batch_groups(
    requests: list[SimRequest], miss_indices: dict[str, list[int]]
) -> list[_Group]:
    """Group cache misses into tasks of ≤ BATCH_WIDTH configs.

    Misses over the same trace object with the same occupancy flag (the
    sweep and figure-driver shape: one trace under many configurations)
    share a task, so the worker loads and decodes the trace once per
    task.
    """
    groups: list[_Group] = []
    open_group: dict[tuple[int, bool], _Group] = {}
    for digest, indices in miss_indices.items():
        trace, config, occupancy = requests[indices[0]]
        key = (id(trace), occupancy)
        group = open_group.get(key)
        if group is None or len(group[0]) >= BATCH_WIDTH:
            group = ([digest], trace, [config], occupancy)
            open_group[key] = group
            groups.append(group)
        else:
            group[0].append(digest)
            group[2].append(config)
    return groups
