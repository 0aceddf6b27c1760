"""Stale-suppression fixture: one live disable, one dead one."""

import os


def execute_simulate(payload):
    return _mode(payload)


def _mode(payload):
    return (payload, os.environ.get("REPRO_MODE"))  # flowlint: disable=FL005


def plain(value):
    return value + 1  # repolint: disable=REP001


TASK_KINDS = {"simulate": execute_simulate}
