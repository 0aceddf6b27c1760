"""``docs/performance.md``'s tables must agree with ``BENCH_core.json``.

The tables are written by hand, so they drift whenever the bench file
is re-recorded.  These tests parse every row of the stage table, the
per-workload trace-generation table and the decode-plane table and
compare them with the committed bench file.
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

_WORKLOAD_HEADER = "| workload    | templated (instr/s) |"
_WORKLOAD_ROW = re.compile(
    r"^\|\s*`(?P<workload>[^`]+)`\s*\|\s*(?P<ips>[\d,]+)\s*\|$"
)

_DECODE_HEADER = (
    "| trace       | instructions | kept (B/instr) | peak (B/instr) "
    "| decode (instr/s) |"
)
_DECODE_ROW = re.compile(
    r"^\|\s*`(?P<workload>[^`]+)`\s*\|\s*(?P<instructions>[\d,]+)\s*"
    r"\|\s*(?P<kept>[\d.]+)\s*\|\s*(?P<peak>[\d.]+)\s*"
    r"\|\s*(?P<ips>[\d,]+)\s*\|$"
)


def _table_rows(header: str, row: re.Pattern, key: str) -> dict[str, dict]:
    lines = (REPO_ROOT / "docs" / "performance.md").read_text().splitlines()
    start = lines.index(header) + 2  # skip the header and the rule
    rows = {}
    for line in lines[start:]:
        match = row.match(line)
        if match is None:
            break
        rows[match[key]] = match.groupdict()
    return rows


def _bench() -> dict:
    return json.loads((REPO_ROOT / "BENCH_core.json").read_text())


def test_stage_table_matches_bench_file():
    bench = _bench()
    rows = _table_rows(_HEADER, _ROW, "stage")
    assert set(rows) == set(STAGES)
    for label, key in STAGES.items():
        row = rows[label]
        assert int(row["reference"].replace(",", "")) == \
            bench["reference_ips"][key], label
        assert int(row["current"].replace(",", "")) == \
            bench["metrics"][key]["ips"], label
        assert float(row["speedup"]) == \
            bench["speedup_vs_reference"][key], label


def test_per_workload_emission_table_matches_bench_file():
    per_workload = _bench()["metrics"]["trace_generation"]["per_workload"]
    rows = _table_rows(_WORKLOAD_HEADER, _WORKLOAD_ROW, "workload")
    assert set(rows) == set(per_workload)
    for workload, row in rows.items():
        assert int(row["ips"].replace(",", "")) == \
            per_workload[workload]["ips"], workload


def test_decode_plane_table_matches_bench_file():
    per_workload = _bench()["decode_plane"]["per_workload"]
    rows = _table_rows(_DECODE_HEADER, _DECODE_ROW, "workload")
    assert set(rows) == set(per_workload)
    for workload, row in rows.items():
        recorded = per_workload[workload]
        assert int(row["instructions"].replace(",", "")) == \
            recorded["instructions"], workload
        assert float(row["kept"]) == \
            recorded["kept_bytes_per_instruction"], workload
        assert float(row["peak"]) == \
            recorded["peak_bytes_per_instruction"], workload
        assert int(row["ips"].replace(",", "")) == recorded["ips"], workload
