"""FL003 fixture: fork-reachable code mutating another module's global."""

from repro.config.presets import register
from repro.sim.mutate import scrub, scrub_quiet, total


def execute_simulate(payload):
    if payload:
        scrub()
    register("seen", payload)
    return total()


def execute_trace(payload):
    scrub_quiet()
    return payload


TASK_KINDS = {
    "simulate": execute_simulate,
    "trace": execute_trace,
}
