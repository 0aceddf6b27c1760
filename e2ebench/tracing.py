"""Spans recorded from the benchmark's own code.

The program carries no tracing of its own, so a traced run wraps the
public functions at each layer boundary (``Tracer.wrap``) in the
process that calls them.  Each call becomes a span with a name, start,
end and the span that was open when it began; spans stay in memory
and are summarized when the run ends.  Nothing here is installed in an
untraced run.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    value: object = None
    args: tuple = ()

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def under(self, name: str) -> bool:
        """True when an enclosing span is called ``name``."""
        span = self.parent
        while span is not None:
            if span.name == name:
                return True
            span = span.parent
        return False


class Tracer:
    """Collects spans from wrapped callables (single-threaded use)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: Span | None = None

    def wrap(
        self, owner: object, attribute: str, name: str,
        keep_args: bool = False,
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        Every span keeps the call's return value; with ``keep_args`` it
        also keeps the positional arguments.
        """
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), parent=tracer._open,
                        args=args if keep_args else ())
            tracer._open = span
            try:
                span.value = original(*args, **kwargs)
                return span.value
            finally:
                span.end = time.perf_counter()
                tracer._open = span.parent
                tracer.spans.append(span)

        setattr(owner, attribute, traced)

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        """Summed duration of every ``name`` span."""
        return sum(span.seconds for span in self.named(name))
