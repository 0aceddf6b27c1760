"""Override fixture: the base class dispatches to ``self.execute``."""


class Kernel:
    def run(self, payload):
        return self.execute(payload)

    def execute(self, payload):
        raise NotImplementedError
