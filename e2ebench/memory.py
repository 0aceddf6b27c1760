"""Peak host memory of a process tree, with shared pages counted once.

Proportional set size (Pss) splits every shared page among the
processes mapping it, so summing Pss over a server and its forked
workers (or several replicas mapping one packed database) counts each
page once.  Linux only: it reads ``/proc/<pid>/smaps_rollup``.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from pathlib import Path


def descendants(pid: int) -> list[int]:
    """``pid`` and every live process below it."""
    found = [pid]
    index = 0
    while index < len(found):
        current = found[index]
        index += 1
        for task in Path(f"/proc/{current}/task").glob("*/children"):
            try:
                found.extend(int(child) for child in task.read_text().split())
            except (OSError, ValueError):
                continue
    return found


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


def reap(pids: list[int], timeout: float = 10.0) -> None:
    """Kill whichever of ``pids`` still run and wait until they end."""
    for pid in pids:
        if alive(pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                continue
    deadline = time.monotonic() + timeout
    while any(alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.02)


def pss_kib(pid: int) -> int:
    """Pss of one process in KiB (0 if it has exited)."""
    try:
        text = Path(f"/proc/{pid}/smaps_rollup").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith("Pss:"):
            return int(line.split()[1])
    return 0


def tree_pss_mb(pid: int) -> float:
    """Summed Pss of ``pid`` and its descendants, in MB."""
    return sum(pss_kib(member) for member in descendants(pid)) / 1024.0


#: Seconds between Pss samples.  Reading ``smaps_rollup`` walks every
#: page of a process under its mmap lock: ~30 ms for the ~1.8 GB tree
#: of a paper regeneration.  At 0.1 s the sampler took about a quarter
#: of a core from the measured processes; the peaks it finds are
#: plateaus seconds long, so a second apart loses nothing.
SAMPLE_INTERVAL_S = 1.0


class PeakSampler:
    """Samples process trees' summed Pss on a thread and keeps the peak."""

    def __init__(self) -> None:
        self.roots: list[int] = []
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def watch(self, pid: int) -> None:
        """Add a process tree to the sampled set."""
        self.roots.append(pid)

    def sample(self) -> None:
        total = 0.0
        for root in list(self.roots):
            total += tree_pss_mb(root)
        self.peak_mb = max(self.peak_mb, total)

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self.sample()

    def __enter__(self) -> "PeakSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
