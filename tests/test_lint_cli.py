"""CLI contract for ``repro lint-trace`` / ``repro lint-code``.

Exit codes (0 clean, 1 violations, 2 usage), the machine-readable
``--json`` shapes, and the acceptance fixture: a corrupted trace
archive must fail naming the violated rule.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.isa.serialize import save_trace
from tracelint_corruptions import CORRUPTIONS, build_sample_trace, fresh_copy

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_cli(*arguments: str) -> subprocess.CompletedProcess:
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *arguments],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=environment,
        timeout=300,
    )


@pytest.fixture(scope="module")
def clean_archive(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("lint-cli") / "clean.npz"
    save_trace(build_sample_trace(), path)
    return path


@pytest.fixture(scope="module")
def corrupted_archive(tmp_path_factory) -> Path:
    trace = fresh_copy(build_sample_trace())
    CORRUPTIONS["forward-dependency"][0](trace)
    path = tmp_path_factory.mktemp("lint-cli") / "corrupted.npz"
    save_trace(trace, path)
    return path


class TestLintTrace:
    def test_clean_archive_exits_zero(self, clean_archive):
        completed = run_cli("lint-trace", str(clean_archive))
        assert completed.returncode == 0, completed.stderr
        assert "1/1 traces clean" in completed.stdout

    def test_corrupted_archive_fails_naming_the_rule(
        self, corrupted_archive
    ):
        completed = run_cli("lint-trace", str(corrupted_archive))
        assert completed.returncode == 1
        assert "TR002" in completed.stdout
        assert "0/1 traces clean" in completed.stdout

    def test_json_report_shape(self, corrupted_archive):
        completed = run_cli("lint-trace", str(corrupted_archive), "--json")
        assert completed.returncode == 1
        payload = json.loads(completed.stdout)
        assert payload["ok"] is False
        (report,) = payload["traces"]
        failing = [
            check["rule"]
            for check in report["checks"]
            if not check["passed"]
        ]
        assert failing == ["TR002"]

    def test_no_targets_is_a_usage_error(self):
        completed = run_cli("lint-trace")
        assert completed.returncode == 2
        assert "--all" in completed.stderr

    def test_unknown_target_is_a_usage_error(self):
        completed = run_cli("lint-trace", "not-a-workload")
        assert completed.returncode == 2
        assert "not-a-workload" in completed.stderr

    @pytest.mark.parametrize("damage", ["text", "truncated"])
    def test_unreadable_archive_is_a_usage_error(
        self, damage, clean_archive, tmp_path
    ):
        path = tmp_path / "bad.npz"
        if damage == "text":
            path.write_text("not an archive\n")
        else:
            data = clean_archive.read_bytes()
            path.write_bytes(data[: len(data) // 2])
        completed = run_cli("lint-trace", str(path))
        assert completed.returncode == 2
        assert completed.stderr.startswith("error: ")
        assert str(path) in completed.stderr
        assert "Traceback" not in completed.stderr
        assert len(completed.stderr.strip().splitlines()) == 1


class TestLintCode:
    def test_repo_is_clean(self):
        completed = run_cli("lint-code")
        assert completed.returncode == 0, completed.stdout
        assert "repolint: clean" in completed.stdout

    def test_json_report_shape(self):
        completed = run_cli("lint-code", "--json")
        assert completed.returncode == 0
        payload = json.loads(completed.stdout)
        assert payload["ok"] is True
        assert payload["violations"] == []
        assert set(payload["rules"]) == {
            "REP001", "REP002", "REP005", "REP008", "REP009",
            "REP010", "REP011", "REP012",
        }

    def test_single_path_scope(self, tmp_path):
        offender = tmp_path / "runtime" / "offender.py"
        offender.parent.mkdir()
        offender.write_text(
            "def f(q):\n"
            "    try:\n"
            "        q.get()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        completed = run_cli("lint-code", str(offender))
        assert completed.returncode == 1
        assert "REP005" in completed.stdout


class TestLintFlow:
    def test_lint_flow_is_an_unknown_command(self):
        # lint-code runs every code rule; the old command name is an
        # unknown experiment id.
        completed = run_cli("lint-flow")
        assert completed.returncode == 2
        assert "unknown experiment(s): lint-flow" in completed.stderr


class TestStaleSuppressionsCli:
    def test_repo_suppressions_all_live(self):
        completed = run_cli("lint-code", "--stale-suppressions")
        assert completed.returncode == 0, completed.stdout
        assert "suppressions: all live" in completed.stdout
