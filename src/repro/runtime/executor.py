"""Task executors: in-process serial and multiprocessing pool.

Both executors share one contract: ``run_many(tasks)`` returns a list of
:class:`TaskOutcome` in task order, or raises :class:`TaskError` when a
task cannot be completed anywhere.

The :class:`PoolExecutor` owns long-lived worker processes, one task in
flight per worker.  Failure handling, in escalating order:

* a task that raises in a worker, a worker that dies mid-task, or a
  task that exceeds the per-task timeout is **retried** (fresh worker,
  bounded by ``retries``);
* a task that exhausts its retries **degrades** to in-process
  execution in the parent — a dying pool slows the campaign down but
  never kills it;
* a pool whose workers cannot start at all marks itself broken and runs
  everything in-process.

Fault injection for tests goes through the picklable ``fault_hook``
callable, invoked in the worker before each task (see
:class:`KillFirstN`).
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import time
from collections import deque
from dataclasses import dataclass, field

from repro.runtime.tasks import Task, run_task


class TaskError(RuntimeError):
    """A task failed in the pool and in the in-process fallback."""


@dataclass
class TaskOutcome:
    """How one task completed."""

    value: object
    retries: int = 0
    wall_time: float = 0.0
    where: str = "inline"  # "pool" | "inline"


class SerialExecutor:
    """Runs every task in the calling process, in order."""

    jobs = 1
    #: Payloads may hold live objects; nothing crosses a process boundary.
    inline = True

    def run_many(self, tasks: list[Task]) -> list[TaskOutcome]:
        return [_run_inline(task, retries=0) for task in tasks]

    def close(self) -> None:
        pass

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _run_inline(task: Task, retries: int) -> TaskOutcome:
    start = time.perf_counter()
    try:
        value = run_task(task.kind, task.payload)
    except Exception as error:
        raise TaskError(
            f"task {task.label or task.kind!r} failed in-process: {error}"
        ) from error
    return TaskOutcome(
        value=value,
        retries=retries,
        wall_time=time.perf_counter() - start,
        where="inline",
    )


def _worker_loop(inbox, outbox, fault_hook) -> None:
    while True:
        # A pool worker process's main loop: it runs on no event loop,
        # and waiting for the next task is all it does.
        item = inbox.get()  # repolint: disable=REP011
        if item is None:
            return
        index, kind, payload = item
        if fault_hook is not None:
            fault_hook(kind, payload)
        try:
            value = run_task(kind, payload)
        except BaseException as error:
            outbox.put((index, False, f"{type(error).__name__}: {error}"))
        else:
            outbox.put((index, True, value))


class KillFirstN:
    """Fault-injection hook: hard-kill the worker for the first N tasks.

    The strike counter is a shared :func:`multiprocessing.Value`, so the
    limit holds across all workers; ``kind`` restricts the faults to one
    task kind (e.g. only ``"simulate"`` tasks).
    """

    def __init__(self, count: int, kind: str | None = None) -> None:
        self.limit = count
        self.kind = kind
        self._struck = multiprocessing.Value("i", 0)

    def __call__(self, kind: str, payload: tuple) -> None:
        if self.kind is not None and kind != self.kind:
            return
        with self._struck.get_lock():
            if self._struck.value >= self.limit:
                return
            self._struck.value += 1
        os._exit(43)


@dataclass
class _Worker:
    process: object
    inbox: object
    task_index: int | None = None
    started: float = field(default=0.0)


class PoolExecutor:
    """Multiprocessing worker pool with per-task timeout and retries."""

    inline = False

    def __init__(
        self,
        jobs: int,
        *,
        task_timeout: float | None = None,
        retries: int = 2,
        fault_hook=None,
        poll_interval: float = 0.02,
        start_method: str | None = None,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.task_timeout = task_timeout
        self.retries = max(0, int(retries))
        self.fault_hook = fault_hook
        self.poll_interval = poll_interval
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._context = multiprocessing.get_context(start_method)
        self._outbox = None
        self._workers: list[_Worker] = []
        self._broken = False

    # -- worker lifecycle ---------------------------------------------------

    def _start_worker(self) -> _Worker:
        inbox = self._context.Queue()
        process = self._context.Process(
            target=_worker_loop,
            args=(inbox, self._outbox, self.fault_hook),
            daemon=True,
        )
        process.start()
        return _Worker(process=process, inbox=inbox)

    def _ensure_started(self) -> None:
        if self._outbox is None:
            self._outbox = self._context.Queue()
            self._workers = [self._start_worker() for _ in range(self.jobs)]

    def close(self) -> None:
        """Shut the workers down (the pool can be restarted afterwards)."""
        for worker in self._workers:
            try:
                worker.inbox.put(None)
            except (OSError, ValueError):
                # A dead worker's queue may already be closed; the join /
                # terminate pass below still reaps the process.
                pass
        for worker in self._workers:
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
        self._workers = []
        self._outbox = None

    def __enter__(self) -> "PoolExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- scheduling ---------------------------------------------------------

    def run_many(self, tasks: list[Task]) -> list[TaskOutcome]:
        tasks = list(tasks)
        if not tasks:
            return []
        if not self._broken:
            try:
                self._ensure_started()
            except Exception:
                self._broken = True
        if self._broken:
            return [_run_inline(task, retries=0) for task in tasks]

        outcomes: list[TaskOutcome | None] = [None] * len(tasks)
        pending: deque[int] = deque(range(len(tasks)))
        attempts = [0] * len(tasks)

        def fail(index: int) -> None:
            if outcomes[index] is not None:
                return
            attempts[index] += 1
            if attempts[index] <= self.retries:
                pending.append(index)
            else:
                # Graceful degradation: the pool gave up on this task,
                # the parent process has not.
                outcomes[index] = _run_inline(tasks[index], attempts[index])

        while pending or any(w.task_index is not None for w in self._workers):
            for worker in self._workers:
                while worker.task_index is None and pending:
                    index = pending.popleft()
                    if outcomes[index] is not None:
                        continue
                    worker.task_index = index
                    worker.started = time.perf_counter()
                    worker.inbox.put(
                        (index, tasks[index].kind, tasks[index].payload)
                    )
            try:
                index, ok, value = self._outbox.get(timeout=self.poll_interval)
            except queue_module.Empty:
                pass
            else:
                worker = next(
                    (w for w in self._workers if w.task_index == index), None
                )
                elapsed = (
                    time.perf_counter() - worker.started if worker else 0.0
                )
                if worker is not None:
                    worker.task_index = None
                if ok:
                    if outcomes[index] is None:
                        outcomes[index] = TaskOutcome(
                            value=value,
                            retries=attempts[index],
                            wall_time=elapsed,
                            where="pool",
                        )
                else:
                    fail(index)

            now = time.perf_counter()
            for position, worker in enumerate(self._workers):
                if worker.task_index is None:
                    if not worker.process.is_alive():
                        self._workers[position] = self._start_worker()
                    continue
                index = worker.task_index
                if not worker.process.is_alive():
                    self._workers[position] = self._start_worker()
                    fail(index)
                elif (
                    self.task_timeout is not None
                    and now - worker.started > self.task_timeout
                ):
                    worker.process.terminate()
                    worker.process.join(timeout=1.0)
                    self._workers[position] = self._start_worker()
                    fail(index)

        return outcomes  # type: ignore[return-value]
