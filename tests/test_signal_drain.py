"""SIGTERM that arrives with the ready line still drains.

``repro serve`` and ``repro cluster up`` print a ready line that
scripts and supervisors wait for before they signal the process.  The
signal handlers must already be installed by then: otherwise the
default SIGTERM action kills the process without a drain and leaves
its worker pool (or its replicas) running.

To hit that moment exactly, the test runs this file as a script: it
wraps the command's ``print`` so that, right after the ready line, the
process records its descendants and sends itself SIGTERM.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(),
    reason="process tree inspection needs /proc",
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _stat(pid: int) -> tuple[str, int] | None:
    """(state, parent pid) of a process, None once it is gone."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name is parenthesized and may contain spaces.
    fields = raw[raw.rindex(")") + 2:].split()
    return fields[0], int(fields[1])


def _alive(pid: int) -> bool:
    stat = _stat(pid)
    return stat is not None and stat[0] not in ("Z", "X")


def _descendants(root: int) -> set[int]:
    parents: dict[int, int] = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            stat = _stat(int(entry.name))
            if stat is not None:
                parents[int(entry.name)] = stat[1]
    found: set[int] = set()
    frontier = {root}
    while frontier:
        frontier = {
            pid for pid, parent in parents.items()
            if parent in frontier and pid not in found
        }
        found |= frontier
    return found


def _terminate_at_ready(command: list[str]) -> tuple[str, list[int]]:
    # Output goes to a file, not a pipe: orphaned workers would hold a
    # pipe open and turn a failure into a hang.
    with tempfile.TemporaryFile("w+") as log:
        returncode = subprocess.run(
            [sys.executable, __file__, *command],
            stdout=log,
            stderr=subprocess.STDOUT,
            timeout=180,
            env=dict(os.environ, PYTHONPATH=SRC),
        ).returncode
        log.seek(0)
        output = log.read()
    descendants = [
        int(pid)
        for line in output.splitlines() if line.startswith("descendants:")
        for pid in line.split()[1:]
    ]
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and any(map(_alive, descendants)):
        time.sleep(0.1)
    leftover = [pid for pid in descendants if _alive(pid)]
    for pid in leftover:
        # A failing run must not leave orphans behind.
        os.kill(pid, signal.SIGKILL)
    assert returncode == 0, output
    assert not leftover, output
    return output, descendants


def test_serve_drains_on_sigterm_at_ready_line():
    output, descendants = _terminate_at_ready(
        ["serve", "--port", "0", "--jobs", "2", "--db-sequences", "10"]
    )
    # Word precomputation started both pool workers before the line.
    assert len(descendants) >= 2, output
    assert "drained: in-flight flushed, exiting" in output


def test_cluster_up_drains_on_sigterm_at_ready_line(tmp_path):
    output, descendants = _terminate_at_ready([
        "cluster", "up", "--replicas", "2", "--jobs", "1",
        "--db-sequences", "10", "--state-dir", str(tmp_path),
    ])
    # At least the two replica processes.
    assert len(descendants) >= 2, output
    assert "draining cluster (signal)..." in output
    assert "cluster down: replicas drained and stopped" in output
    assert not (tmp_path / "cluster.json").exists()


def _main(argv: list[str]) -> int:
    """Run a command, sending SIGTERM to itself at its ready line."""
    if argv[0] == "serve":
        from repro.serve import server as module

        entry, prefix = module.main_serve, "serving on "
    else:
        from repro.cluster import cli as module

        entry, prefix = module.main_cluster, "cluster up: "

    def print_then_signal(*args, **kwargs):
        print(*args, **kwargs)
        if args and str(args[0]).startswith(prefix):
            pids = sorted(_descendants(os.getpid()))
            print("descendants:", *pids, flush=True)
            os.kill(os.getpid(), signal.SIGTERM)

    module.print = print_then_signal
    return entry(argv[1:])


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
