"""paper-cold and paper-warm: regenerate every table and figure.

Each regeneration runs in a fresh process (``paper_child.py``) so that
nothing carries over in memory between repetitions; what carries over
between the warm workload's set-up and its measured runs is only the
on-disk result cache, which is the point of that workload.

The inputs are the paper's own fixed suite (the default query against
the default synthetic database) at a pinned ``REPRO_SCALE``; the seed
does not change them, which is what lets the report digests and the
simulated instruction and cycle totals in ``pins.json`` be exact.

Run ``python3 e2ebench/paper.py --write-pins`` from the repository root
to re-pin after a change that is meant to alter the reports.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from memory import PeakSampler
from stats import nearest_rank

HERE = Path(__file__).resolve().parent
CHILD = HERE / "paper_child.py"
PINS = HERE / "pins.json"
#: The benchmark's fixed scale (``REPRO_SCALE``; 0.01 is the floor the
#: suite accepts).  The pins hold only at this value.
SCALE = "0.01"
#: Fresh-process start-ups timed per run; set-up reports their median.
SETUP_SAMPLES = 5


class PaperRun:
    """One workload invocation's temp space and child environment."""

    def __init__(self, scratch: Path, env: dict[str, str]) -> None:
        self.scratch = scratch
        self.env = env
        self.serial = 0

    def path(self, stem: str) -> Path:
        self.serial += 1
        return self.scratch / f"{stem}-{self.serial}"

    def start(self, cache: Path, *, trace: bool = False,
              ready_only: bool = False) -> tuple[subprocess.Popen, Path, float]:
        """Spawn a child; return it, its output path and its start-up
        time (spawn until it reports ready)."""
        out = self.path("summary").with_suffix(".json")
        command = [sys.executable, str(CHILD), "--cache", str(cache),
                   "--out", str(out)]
        if trace:
            command.append("--trace")
        if ready_only:
            command.append("--ready-only")
        began = time.perf_counter()
        child = subprocess.Popen(command, env=self.env, stdout=subprocess.PIPE,
                                 text=True)
        line = child.stdout.readline()
        ready = time.perf_counter() - began
        if line.strip() != "ready":
            child.wait()
            raise RuntimeError(f"paper child failed to start: {line!r}")
        return child, out, ready

    def startup_s(self) -> float:
        """Time one fresh child takes to import and build its runtime."""
        child, _, ready = self.start(self.path("probe-cache"), ready_only=True)
        child.wait()
        return ready

    def regenerate(self, cache: Path, sampler: PeakSampler | None = None,
                   trace: bool = False) -> tuple[dict, float]:
        """One full regeneration in a fresh child; (summary, start-up)."""
        child, out, ready = self.start(cache, trace=trace)
        if sampler is not None:
            sampler.watch(child.pid)
        child.stdout.read()
        if child.wait() != 0:
            raise RuntimeError(f"paper child exited with {child.returncode}")
        if sampler is not None:
            sampler.roots.remove(child.pid)
        return json.loads(out.read_text()), ready


def simulated_totals(cache: Path) -> tuple[int, int, int]:
    """(results, instructions, cycles) over every result in a cache."""
    from repro.runtime.cache import RESULT_SUFFIX, ResultCache

    store = ResultCache(cache)
    count = instructions = cycles = 0
    for path in store.object_files():
        if path.name.endswith(RESULT_SUFFIX):
            result = store.load_result(path.name[:-len(RESULT_SUFFIX)])
            count += 1
            instructions += result.instructions
            cycles += result.cycles
    return count, instructions, cycles


def check_summary(summary: dict, pins: dict) -> int:
    """Experiments whose report digest differs from the pin (or raised)."""
    failed = 0
    for identifier, digest in pins["experiments"].items():
        entry = summary["experiments"].get(identifier, {})
        if entry.get("digest") != digest:
            failed += 1
            print(f"paper: {identifier} report digest mismatch "
                  f"({entry.get('error') or entry.get('digest')})",
                  file=sys.stderr)
    return failed


def check_totals(cache: Path, pins: dict) -> bool:
    count, instructions, cycles = simulated_totals(cache)
    ok = (count, instructions, cycles) == (
        pins["sim_results"], pins["sim_instructions"], pins["sim_cycles"]
    )
    if not ok:
        print(f"paper: simulated totals {count}/{instructions}/{cycles} "
              f"differ from pins", file=sys.stderr)
    return ok


def run_paper(warm: bool, seconds: float, trace: bool, scratch: Path,
              env: dict[str, str]) -> dict:
    """Measure paper-cold (``warm`` false) or paper-warm."""
    pins = json.loads(PINS.read_text())
    run = PaperRun(scratch, env)
    attempted = failed = 0
    correct = True

    def account(summary: dict) -> None:
        nonlocal attempted, failed
        attempted += len(pins["experiments"])
        failed += check_summary(summary, pins)

    warm_cache = run.path("cache")
    if warm:
        began = time.perf_counter()
        summary, _ = run.regenerate(warm_cache)
        setup = [time.perf_counter() - began]
        if check_summary(summary, pins) or not check_totals(warm_cache, pins):
            correct = False
    else:
        setup = [run.startup_s() for _ in range(SETUP_SAMPLES - 1)]

    walls: list[float] = []
    summaries: list[dict] = []
    sampler = PeakSampler()
    measured = time.perf_counter()
    with sampler:
        # Start another regeneration only if it should end inside the
        # window, so a run measures about ``seconds`` and at least once.
        while not walls or (
            time.perf_counter() - measured + walls[-1] <= seconds
        ):
            cache = warm_cache if warm else run.path("cache")
            summary, ready = run.regenerate(cache, sampler, trace=trace)
            if not warm:
                setup.append(ready)
                attempted += 1
                if not check_totals(cache, pins):
                    failed += 1
                    correct = False
            elif summary["counts"]["simulate_executions"] != 0:
                print("paper: warm regeneration executed simulations",
                      file=sys.stderr)
                correct = False
            account(summary)
            walls.append(summary["wall_s"])
            summaries.append(summary)
            if trace:
                break
    wall = statistics.median(walls)
    result = {
        "attempted": attempted,
        "failed": failed,
        "correct": correct and failed == 0,
        "end_to_end": {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "p50_ms": wall * 1e3,
            "p95_ms": nearest_rank(walls, 95) * 1e3,
            "max_rate_rps": 1.0 / wall,
            "ok_share": (attempted - failed) / attempted,
            "peak_rss_mb": sampler.peak_mb,
        },
    }
    if trace:
        summary = summaries[0]
        layers = dict(summary["layers"])
        for identifier, entry in summary["experiments"].items():
            layers[f"analysis.{identifier}_s"] = entry.get("seconds", 0.0)
        layers["trace.wall_s"] = summary["wall_s"]
        layers["trace.p50_ms"] = summary["wall_s"] * 1e3
        result["per_layer"] = layers
    return result


def write_pins(scratch: Path, env: dict[str, str]) -> None:
    """Regenerate once from a cold cache and pin what it produced."""
    run = PaperRun(scratch, env)
    cache = run.path("cache")
    summary, _ = run.regenerate(cache)
    count, instructions, cycles = simulated_totals(cache)
    pins = {
        "scale": SCALE,
        "experiments": {
            identifier: entry["digest"]
            for identifier, entry in summary["experiments"].items()
        },
        "sim_results": count,
        "sim_instructions": instructions,
        "sim_cycles": cycles,
    }
    PINS.write_text(json.dumps(pins, indent=2) + "\n")
    print(f"pinned {len(pins['experiments'])} reports, {count} results")


if __name__ == "__main__":
    from run import prepared

    if sys.argv[1:] != ["--write-pins"]:
        sys.exit("usage: python3 e2ebench/paper.py --write-pins")
    with prepared() as (scratch, env):
        write_pins(scratch, env)

