"""``docs/performance.md``'s stage table must agree with ``BENCH_core.json``.

The table is written by hand, so it drifts whenever the bench file is
re-recorded.  This test parses every row and compares the reference
throughput, the current throughput and the speedup with the committed
bench file.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Stage label in the docs table -> stage key in ``BENCH_core.json``.
STAGES = {
    "trace generation": "trace_generation",
    "`load_trace`": "load_trace",
    "simulation": "simulate",
}

_HEADER = "| stage            | reference (instr/s) | current (instr/s) | speedup |"
_ROW = re.compile(
    r"^\|\s*(?P<stage>[^|]+?)\s*\|\s*(?P<reference>[\d,]+)\s*"
    r"\|\s*(?P<current>[\d,]+)\s*\|\s*(?P<speedup>[\d.]+)×\s*\|$"
)


def _stage_rows() -> dict[str, dict[str, str]]:
    lines = (REPO_ROOT / "docs" / "performance.md").read_text().splitlines()
    start = lines.index(_HEADER) + 2  # skip the header and the rule
    rows = {}
    for line in lines[start:]:
        match = _ROW.match(line)
        if match is None:
            break
        rows[match["stage"]] = match.groupdict()
    return rows


def test_stage_table_matches_bench_file():
    bench = json.loads((REPO_ROOT / "BENCH_core.json").read_text())
    rows = _stage_rows()
    assert set(rows) == set(STAGES)
    for label, key in STAGES.items():
        row = rows[label]
        assert int(row["reference"].replace(",", "")) == \
            bench["reference_ips"][key], label
        assert int(row["current"].replace(",", "")) == \
            bench["metrics"][key]["ips"], label
        assert float(row["speedup"]) == \
            bench["speedup_vs_reference"][key], label
