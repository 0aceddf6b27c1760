"""FL005 fixture: cached tasks influenced by env vars through helpers."""

from repro.env.scale import scale_factor, secret_mode, secret_mode_quiet


def execute_simulate(payload):
    return payload * scale_factor() * (2 if secret_mode() else 1)


def execute_trace(payload):
    return payload if secret_mode_quiet() else None


TASK_KINDS = {
    "simulate": execute_simulate,
    "trace": execute_trace,
}
