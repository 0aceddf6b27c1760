"""Override fixture: only the subclass override reads the wall clock."""

import time

from repro.kernels.base import Kernel


class ClockKernel(Kernel):
    def execute(self, payload):
        return (payload, time.time())


class Unrelated:
    def execute(self, payload):
        return (payload, time.time())
