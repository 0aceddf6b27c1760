"""Run one benchmark workload and print its metrics.

    python3 e2ebench/run.py --workload paper-cold --seed 1 --seconds 50 --trace 0

Run from the repository root: the program under test is imported from
``./src``.  The last line of standard output is one JSON object,
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0``
the metrics are the end-to-end ones of ``BENCHMARK.json``, with
``--trace 1`` the per-layer ones (layers a workload does not exercise
read 0).  Everything the run writes lives in a temporary directory
under ``.e2ebench-tmp/`` that is removed when it ends.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spec import SpecError, check_metrics, declared, load_spec  # noqa: E402

SRC = Path.cwd() / "src"
SCRATCH_ROOT = Path.cwd() / ".e2ebench-tmp"
#: Settings the program reads from the environment.  A run removes
#: them so results cannot depend on the caller's shell, pins
#: REPRO_SCALE itself, and reports what it removed.
NEUTRALIZED = ("REPRO_SCALE", "REPRO_EMIT", "REPRO_CACHE_DIR", "REPRO_STORE_DIR")


@contextlib.contextmanager
def prepared():
    """Check the source is present, scrub the environment, and yield
    ``(scratch_dir, child_env)``; the scratch dir is removed after."""
    from paper import SCALE

    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no program source at {SRC}; run from the "
                         "repository root")
    removed = {name: os.environ.pop(name) for name in NEUTRALIZED
               if name in os.environ}
    if removed:
        print(f"neutralized environment: {removed}")
    SCRATCH_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH_ROOT))
    temp = scratch / "tmp"
    temp.mkdir()
    os.environ["REPRO_SCALE"] = SCALE
    tempfile.tempdir = str(temp)
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(temp))
    try:
        yield scratch, env
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH_ROOT.rmdir()


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scratch: Path, env: dict[str, str]) -> dict:
    from paper import run_paper
    from search import DISTINCT, HOT, HOT_SMALL, run_search

    if name in ("paper-cold", "paper-warm"):
        return run_paper(name == "paper-warm", seconds, trace, scratch, env)
    shape = {"search-distinct": DISTINCT, "search-hot-small": HOT_SMALL,
             "search-hot": HOT}[name]
    return run_search(shape, seed, seconds, trace, scratch, env)


#: Every workload this file runs.  BENCHMARK.json lists the ones the
#: benchmark measures; the others run by name (see README.md).
WORKLOADS = ("paper-cold", "paper-warm", "search-distinct", "search-hot-small",
             "search-hot")


def render(spec: dict, trace: bool, result: dict) -> str:
    """The final JSON line, after checking it against BENCHMARK.json."""
    units = declared(spec, trace)
    if trace:
        values = dict.fromkeys(units, 0.0)
        values.update(result["per_layer"])
    else:
        values = result["end_to_end"]
    check_metrics(spec, trace, values)
    bad = [name for name, value in values.items() if not math.isfinite(value)]
    if bad:
        raise SpecError(f"non-finite metrics: {bad}")
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="e2ebench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args(argv)
    spec = load_spec()
    with prepared() as (scratch, env):
        result = run_workload(options.workload, options.seed, options.seconds,
                              bool(options.trace), scratch, env)
    print(render(spec, bool(options.trace), result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
