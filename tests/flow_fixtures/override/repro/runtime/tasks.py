"""Override fixture: a cached task runs a kernel through its base class."""

from repro.kernels.base import Kernel


def execute_trace(kernel: Kernel, payload):
    return kernel.run(payload)


TASK_KINDS = {"trace": execute_trace}
