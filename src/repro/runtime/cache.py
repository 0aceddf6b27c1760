"""Persistent content-addressed result cache.

Layout under the cache root::

    objects/<aa>/<digest>.result.json   one SimulationResult
    objects/<aa>/<digest>.run.json      one KernelRun sidecar (mix, scores,
                                        truncation, trace content digest)
    objects/<aa>/<digest>.trace.npz     one Trace (columnar, via
                                        repro.isa.serialize)

``<digest>`` comes from :mod:`repro.runtime.keys`; ``<aa>`` is its first
two hex characters (fan-out so directories stay small).  Trace files are
addressed by *content* digest, so a trace generated by a trace task and
a trace spilled for shipping to a simulate worker land on the same file.
Writes go through a same-directory temporary file plus
:func:`os.replace`, so concurrent producers of the same entry are safe
(last write wins with identical bytes) and readers never see a torn
file; a missing or unreadable entry loads as a miss.  Maintenance
(``stats``/``clean``) touches only the ``objects/`` tree, so the cache
root can host sidecar state — sweep manifests — without the cleaner
removing it.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from repro.isa.serialize import load_trace, save_trace
from repro.isa.trace import InstructionMix, Trace
from repro.kernels.base import KernelRun
from repro.uarch.results import BranchResult, CacheResult, SimulationResult

RESULT_SUFFIX = ".result.json"
RUN_SUFFIX = ".run.json"
TRACE_SUFFIX = ".trace.npz"


def result_to_dict(result: SimulationResult) -> dict:
    """JSON-serializable form of a :class:`SimulationResult`."""

    def counters(value: CacheResult) -> dict:
        return {"accesses": value.accesses, "misses": value.misses}

    return {
        "trace_name": result.trace_name,
        "config_name": result.config_name,
        "memory_name": result.memory_name,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "traumas": dict(result.traumas),
        "branch": {
            "predictions": result.branch.predictions,
            "correct": result.branch.correct,
            "btb_lookups": result.branch.btb_lookups,
            "btb_misses": result.branch.btb_misses,
        },
        "il1": counters(result.il1),
        "dl1": counters(result.dl1),
        "l2": counters(result.l2),
        "itlb": counters(result.itlb),
        "dtlb": counters(result.dtlb),
        "queue_occupancy": {
            queue: {str(value): cycles for value, cycles in histogram.items()}
            for queue, histogram in result.queue_occupancy.items()
        },
    }


def result_from_dict(data: dict) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from :func:`result_to_dict`."""

    def counters(value: dict) -> CacheResult:
        return CacheResult(accesses=value["accesses"], misses=value["misses"])

    return SimulationResult(
        trace_name=data["trace_name"],
        config_name=data["config_name"],
        memory_name=data["memory_name"],
        instructions=data["instructions"],
        cycles=data["cycles"],
        traumas=dict(data["traumas"]),
        branch=BranchResult(**data["branch"]),
        il1=counters(data["il1"]),
        dl1=counters(data["dl1"]),
        l2=counters(data["l2"]),
        itlb=counters(data["itlb"]),
        dtlb=counters(data["dtlb"]),
        queue_occupancy={
            queue: {int(value): cycles for value, cycles in histogram.items()}
            for queue, histogram in data["queue_occupancy"].items()
        },
    )


@dataclass(frozen=True)
class CacheStats:
    """Entry/byte counts for ``repro cache stats``."""

    results: int
    runs: int
    traces: int
    total_bytes: int

    @property
    def entries(self) -> int:
        """Total artifact count."""
        return self.results + self.runs + self.traces


class ResultCache:
    """Content-addressed result store rooted at one directory.

    Holds simulation results, kernel-run sidecars and spilled traces
    under ``objects/`` (see the module docstring).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.objects = self.root / "objects"
        self.objects.mkdir(parents=True, exist_ok=True)

    def _path(self, digest: str, suffix: str) -> Path:
        return self.objects / digest[:2] / f"{digest}{suffix}"

    def _write_atomic(
        self, path: Path, writer: Callable[[Path], None]
    ) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        # Keep the real suffix: np.savez appends ".npz" to paths without
        # it.  The temp name carries pid AND thread id — concurrent
        # producers in one process (serve loop + pool threads) must not
        # share a temp or one replaces the other's half-written file.
        temporary = path.with_name(
            f".{path.stem}.{os.getpid()}.{threading.get_ident()}"
            f".tmp{path.suffix}"
        )
        try:
            writer(temporary)
            os.replace(temporary, path)
        finally:
            temporary.unlink(missing_ok=True)

    # -- simulation results -------------------------------------------------

    def load_result(self, digest: str) -> SimulationResult | None:
        """Cached :class:`SimulationResult`, or None on miss."""
        path = self._path(digest, RESULT_SUFFIX)
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        return result_from_dict(data)

    def store_result(self, digest: str, result: SimulationResult) -> None:
        """Persist one simulation result under its digest."""
        payload = json.dumps(result_to_dict(result))
        self._write_atomic(
            self._path(digest, RESULT_SUFFIX),
            lambda path: path.write_text(payload),
        )

    # -- traces -------------------------------------------------------------

    def trace_path(self, content_digest: str) -> Path:
        """Where a trace with this content digest lives (may not exist)."""
        return self._path(content_digest, TRACE_SUFFIX)

    def store_trace(
        self, content_digest: str, trace: Trace, *, strict: bool = False
    ) -> Path:
        """Spill a trace (no-op when the file already exists).

        ``strict=True`` refuses to cache a trace that fails lint or
        whose recomputed content digest disagrees with the address it
        is about to be stored under (:class:`repro.verify.TraceLintError`).
        """
        if strict:
            from repro.verify import check_trace

            check_trace(trace, expected_digest=content_digest)
        path = self.trace_path(content_digest)
        if not path.exists():
            self._write_atomic(path, lambda temp: save_trace(trace, temp))
        return path

    def load_trace(
        self, content_digest: str, *, strict: bool = False
    ) -> Trace | None:
        """Load a spilled trace, or None when absent/corrupt.

        ``strict=True`` additionally lints the loaded trace and checks
        its content digest against the file's content address, raising
        :class:`repro.verify.TraceLintError` on tampered cache entries.
        """
        path = self.trace_path(content_digest)
        try:
            trace = load_trace(path)
        except (OSError, ValueError, KeyError, zipfile.BadZipFile):
            return None
        if strict:
            from repro.verify import check_trace

            check_trace(trace, expected_digest=content_digest)
        return trace

    # -- kernel runs (trace task results) -----------------------------------

    def store_kernel_run(
        self, task_digest: str, run: KernelRun, trace_content_digest: str
    ) -> None:
        """Persist a trace task's outcome (trace stored separately)."""
        payload = json.dumps({
            "kernel_name": run.kernel_name,
            "mix_counts": list(run.mix.counts),
            "scores": dict(run.scores),
            "truncated": run.truncated,
            "subjects_processed": run.subjects_processed,
            "trace_digest": trace_content_digest,
        })
        self._write_atomic(
            self._path(task_digest, RUN_SUFFIX),
            lambda path: path.write_text(payload),
        )

    def load_kernel_run(
        self, task_digest: str, *, strict: bool = False
    ) -> KernelRun | None:
        """Rebuild a cached :class:`KernelRun` (sidecar + trace file)."""
        path = self._path(task_digest, RUN_SUFFIX)
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        trace = self.load_trace(data["trace_digest"], strict=strict)
        if trace is None:
            return None
        return KernelRun(
            kernel_name=data["kernel_name"],
            mix=InstructionMix(counts=tuple(data["mix_counts"])),
            trace=trace,
            scores=dict(data["scores"]),
            truncated=data["truncated"],
            subjects_processed=data["subjects_processed"],
        )

    # -- maintenance --------------------------------------------------------

    def object_files(self) -> Iterator[Path]:
        """Every stored object (skips directories and in-flight temps)."""
        for path in self.objects.rglob("*"):
            if path.is_file() and not path.name.startswith("."):
                yield path

    def stats(self) -> CacheStats:
        """Count entries and bytes (for ``repro cache stats``)."""
        suffixes = (RESULT_SUFFIX, RUN_SUFFIX, TRACE_SUFFIX)
        counts = dict.fromkeys(suffixes, 0)
        total = 0
        for path in self.object_files():
            try:
                total += path.stat().st_size
            except OSError:
                continue  # removed concurrently
            for suffix in suffixes:
                if path.name.endswith(suffix):
                    counts[suffix] += 1
                    break
        return CacheStats(
            results=counts[RESULT_SUFFIX],
            runs=counts[RUN_SUFFIX],
            traces=counts[TRACE_SUFFIX],
            total_bytes=total,
        )

    def clean(self) -> CacheStats:
        """Delete every cached artifact; returns what was removed."""
        stats = self.stats()
        shutil.rmtree(self.objects, ignore_errors=True)
        self.objects.mkdir(parents=True, exist_ok=True)
        return stats
