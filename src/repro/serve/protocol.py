"""JSON-lines wire protocol for the alignment-search service.

One request per line, one response per line, matched by ``id`` (the
server may interleave responses when a client pipelines requests).

Request operations::

    {"op": "ping", "id": "1"}
    {"op": "telemetry", "id": "2"}
    {"op": "status", "id": "4"}
    {"op": "search", "id": "3", "query": "MKTAYIAK...",
     "query_id": "sp|P00762", "algorithm": "blast",
     "best_count": 500, "gap_open": 10, "gap_extend": 1,
     "timeout": 5.0}

``algorithm`` is one of :data:`repro.align.batch.ALGORITHMS`; scoring
knobs default to the paper's Table I settings.  ``threshold`` (BLAST
only, the ``blastp -f`` neighborhood cutoff) trades sensitivity for
speed.  ``timeout`` is the per-request deadline in seconds (server
default applies when absent).

Responses carry ``status``: ``ok`` (with ``result``), ``shed`` (queue
full or draining — the 429 analogue, with a ``reason``), ``timeout``
(deadline expired before the search finished), or ``error`` (with
``error`` text).  ``ok`` search responses embed a ranked hit list in
the :func:`repro.align.batch.result_to_dict` shape.

``status`` reports liveness/load (in-flight count, queue depth,
draining flag) — the cluster router uses it for admission capacity
discovery, and ``repro cluster status`` renders it.  ``admin`` is the
router's control channel (``repro cluster {scale,drain,restart}``);
plain replicas answer it with an error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.align.batch import SearchParams

#: Response status values.
STATUS_OK = "ok"
STATUS_SHED = "shed"
STATUS_TIMEOUT = "timeout"
STATUS_ERROR = "error"

#: Request operations.
OPS = ("search", "telemetry", "ping", "status", "admin")

#: Line limit for stream readers that receive responses.  asyncio's
#: default of 64 KiB is smaller than a default ``best_count`` BLAST
#: response over a few thousand database sequences.
MAX_LINE_BYTES = 64 * 1024 * 1024


class ProtocolError(ValueError):
    """A request line the server cannot interpret."""


@dataclass(frozen=True)
class SearchRequest:
    """One decoded ``search`` operation."""

    request_id: str
    query_id: str
    query_text: str
    params: SearchParams
    timeout: float | None = None


def decode_line(line: str) -> dict:
    """Parse one request line into its JSON object."""
    try:
        data = json.loads(line)
    except ValueError as error:
        raise ProtocolError(f"invalid JSON: {error}") from None
    if not isinstance(data, dict):
        raise ProtocolError("request must be a JSON object")
    operation = data.get("op", "search")
    if operation not in OPS:
        raise ProtocolError(
            f"unknown op {operation!r}; expected one of {', '.join(OPS)}"
        )
    return data


def decode_search(data: dict) -> SearchRequest:
    """Build a :class:`SearchRequest` from a decoded ``search`` object."""
    query_text = data.get("query", "")
    if not isinstance(query_text, str) or not query_text:
        raise ProtocolError("search request needs a non-empty 'query'")
    timeout = data.get("timeout")
    if timeout is not None:
        timeout = float(timeout)
        if timeout <= 0:
            raise ProtocolError("'timeout' must be positive")
    threshold = data.get("threshold")
    try:
        params = SearchParams(
            algorithm=str(data.get("algorithm", "blast")),
            best_count=int(data.get("best_count", 500)),
            gap_open=int(data.get("gap_open", 10)),
            gap_extend=int(data.get("gap_extend", 1)),
            threshold=None if threshold is None else int(threshold),
        )
    except ValueError as error:
        raise ProtocolError(str(error)) from None
    return SearchRequest(
        request_id=str(data.get("id", "")),
        query_id=str(data.get("query_id", "query")),
        query_text=query_text,
        params=params,
        timeout=timeout,
    )


def encode_response(response: dict) -> str:
    """Serialize one response object to its wire line (no newline)."""
    return json.dumps(response, separators=(",", ":"))


def ok_response(request_id: str, result: dict, **extra) -> dict:
    """A successful search response."""
    return {
        "id": request_id, "status": STATUS_OK, "result": result, **extra
    }


def shed_response(request_id: str, reason: str | None = None) -> dict:
    """Load-shedding rejection (the HTTP 429 analogue).

    ``reason`` distinguishes *why* the request was refused — a full
    admission queue (``overloaded``) versus a draining server
    (``draining``) versus a saturated cluster (``saturated``).  Either
    way the request is retryable: the cluster router redispatches shed
    responses to other replicas before giving up.
    """
    return {
        "id": request_id,
        "status": STATUS_SHED,
        "reason": reason or "overloaded",
        "error": "server overloaded; retry later",
    }


def timeout_response(request_id: str) -> dict:
    """Deadline-expiry rejection."""
    return {
        "id": request_id,
        "status": STATUS_TIMEOUT,
        "error": "deadline expired before the search completed",
    }


def error_response(request_id: str, message: str) -> dict:
    """A malformed request or an internal failure."""
    return {"id": request_id, "status": STATUS_ERROR, "error": message}
