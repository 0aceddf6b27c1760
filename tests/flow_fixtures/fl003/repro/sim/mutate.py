"""FL003 fixture: the global write hides one helper below the task body."""

from repro.config.presets import PRESETS


def scrub():
    _reset()


def _reset():
    PRESETS["k"] = 1


def scrub_quiet():
    PRESETS.clear()  # flowlint: disable=FL003


def total():
    return len(PRESETS)
