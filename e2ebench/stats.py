"""Statistics shared by every workload: percentiles, latency from due
times, and the rate-ladder verdict.

Every timing percentile uses the nearest-rank rule (the same rule as
``repro.runtime.metrics.percentiles``), and a percentile only counts as
supported when at least ten samples lie beyond it, so a p95 needs 200
samples.  Failed operations count as missing every latency limit: they
enter the distribution as infinitely late.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def nearest_rank(values: list[float], point: float) -> float:
    """Nearest-rank percentile: the ceil(point/100 * n)-th smallest."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < point <= 100:
        raise ValueError("percentile point must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(point * len(ordered) / 100)))
    return ordered[rank - 1]


def beyond(count: int, point: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank point."""
    if count < 1:
        return 0
    rank = max(1, min(count, math.ceil(point * count / 100)))
    return count - rank


def supported(count: int, point: float) -> bool:
    """True when a ``point`` percentile of ``count`` samples has at
    least :data:`MIN_BEYOND` samples beyond it."""
    return beyond(count, point) >= MIN_BEYOND


def due_latencies(records: list[dict]) -> list[float]:
    """Latency of each request in seconds, measured from its due time.

    ``records`` hold ``due`` and ``done`` (monotonic seconds) and
    ``ok``.  A failed request is infinitely late, so it misses every
    limit and pushes the percentiles up instead of vanishing from them.
    """
    return [
        record["done"] - record["due"] if record["ok"] else math.inf
        for record in records
    ]


def backlog_grows(records: list[dict], rate: float) -> bool:
    """True when the queue grew over a step of the rate ladder.

    Compares how long requests waited in the last third of the step
    with the first third (median due-time latency, failures infinite):
    a system keeping up holds that wait flat, one falling behind adds
    to it with every arrival.  The step also counts as backlogged when
    its last response came more than a quarter of the step's length
    (and at least a second) after its last due time.
    """
    if len(records) < 6:
        return False
    ordered = sorted(records, key=lambda record: record["due"])
    third = len(ordered) // 3
    head = statistics.median(due_latencies(ordered[:third]))
    tail = statistics.median(due_latencies(ordered[-third:]))
    span = len(ordered) / rate
    if tail > head + max(0.25 * span / 3, 0.5):
        return True
    last_due = ordered[-1]["due"]
    last_done = max(
        (record["done"] for record in ordered if record["ok"]),
        default=math.inf,
    )
    return last_done - last_due > max(0.25 * span, 1.0)
