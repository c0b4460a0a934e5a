"""Per-request telemetry: IDs, the structured journal, the access log.

Every ``POST /run`` is assigned a monotonically increasing request ID
at admission (echoed back as an ``X-Request-Id`` header) and leaves one
structured record behind: the canonical cache key it resolved to, its
outcome (``simulated`` / ``coalesced`` / ``cached`` / ``rejected-429``
/ ``timeout-504`` / ...), and its stage durations (queue wait, simulate,
end-to-end).  Records land in a bounded in-memory ring buffer — the
:class:`RequestJournal`, served at ``GET /debug/requests`` — and,
when the operator opts in, as JSON lines in the :class:`AccessLog`
(the structured replacement for the suppressed ``http.server``
``log_message``).

Nothing here touches the simulation: telemetry reads timestamps and
outcomes, so enabling it cannot change a simulated number or a response
byte (pinned by the A/B test in ``tests/test_obs.py``).
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

# -- outcome vocabulary (journal + access log) --------------------------

OUTCOME_SIMULATED = "simulated"
OUTCOME_COALESCED = "coalesced"
OUTCOME_CACHED = "cached"
OUTCOME_REJECTED = "rejected-429"
OUTCOME_TIMEOUT = "timeout-504"
OUTCOME_DRAINING = "rejected-503"
OUTCOME_BAD_REQUEST = "bad-request"
OUTCOME_ERROR = "error"

#: Stage-latency histogram names (all observed in seconds with the
#: log-spaced default latency buckets).
QUEUE_WAIT_METRIC = "serve.latency.queue_wait_seconds"
SIMULATE_METRIC = "serve.latency.simulate_seconds"
TOTAL_METRIC = "serve.latency.total_seconds"
COALESCE_WAIT_METRIC = "serve.latency.coalesce_wait_seconds"


def _round_ms(seconds: Optional[float]) -> Optional[float]:
    if seconds is None:
        return None
    return round(seconds * 1e3, 3)


@dataclass
class RequestContext:
    """Mutable per-request telemetry carried through the request path.

    When tracing is enabled the context also carries the request's
    trace identity — the ``trace_id`` propagated from (or minted for)
    the client, the server's own request ``span_id``, and the client's
    ``parent_span_id`` — plus the stage timestamps and accumulated
    :class:`~repro.obs.spans.SpanRecord` children the service flushes
    to its span store when the request finishes.
    """

    request_id: str
    started: float  # perf_counter at admission
    cache_key: Optional[str] = None
    outcome: Optional[str] = None
    queue_wait_s: Optional[float] = None
    simulate_s: Optional[float] = None
    # -- distributed tracing (None everywhere when tracing is off) ------
    trace_id: Optional[str] = None
    span_id: Optional[str] = None  # the serve.request span
    parent_span_id: Optional[str] = None  # the client's span, if propagated
    queue_entered: Optional[float] = None  # perf_counter at queue submit
    spans: List[Any] = field(default_factory=list)

    def record(self, *, status: int, total_s: float) -> Dict[str, Any]:
        """The journal/access-log form of this request's telemetry."""
        return {
            "request_id": self.request_id,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "cache_key": self.cache_key,
            "outcome": self.outcome,
            "status": status,
            "queue_wait_ms": _round_ms(self.queue_wait_s),
            "simulate_ms": _round_ms(self.simulate_s),
            "total_ms": _round_ms(total_s),
        }


class RequestJournal:
    """Bounded, thread-safe ring buffer of structured request records.

    Holds the last ``capacity`` records in arrival order; older entries
    fall off the front.  ``tail(n)`` returns the newest ``n`` records
    oldest-first, so ``/debug/requests`` reads chronologically.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"journal capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._records: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def append(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self._records.append(record)

    def tail(self, n: Optional[int] = None) -> List[Dict[str, Any]]:
        with self._lock:
            records = list(self._records)
        if n is not None and n >= 0:
            records = records[-n:] if n else []
        return records

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


class RequestIds:
    """Monotonic request-ID source (``req-000001``, ``req-000002``, ...)."""

    def __init__(self, prefix: str = "req"):
        self._prefix = prefix
        self._next = 0
        self._lock = threading.Lock()

    def next_id(self) -> str:
        with self._lock:
            self._next += 1
            return f"{self._prefix}-{self._next:06d}"


class AccessLog:
    """Opt-in JSON-lines access log (one object per served request).

    ``path`` names a file to append to, or ``"-"`` for stderr.  Each
    line carries the request record plus the HTTP envelope (method,
    path, status) and a wall-clock timestamp — the log is an operator
    artifact, unlike the deterministic journal/response payloads.
    """

    def __init__(self, path: str, *, clock=time.time):
        self.path = path
        self._clock = clock
        self._lock = threading.Lock()
        self._stream = sys.stderr if path == "-" else open(path, "a")

    def write(self, method: str, path: str, status: int, **fields: Any) -> None:
        entry: Dict[str, Any] = {
            "ts": round(self._clock(), 6),
            "method": method,
            "path": path,
            "status": status,
        }
        entry.update(fields)
        line = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        with self._lock:
            self._stream.write(line + "\n")
            self._stream.flush()

    def close(self) -> None:
        with self._lock:
            if self._stream is not sys.stderr:
                self._stream.close()


__all__ = [
    "OUTCOME_SIMULATED",
    "OUTCOME_COALESCED",
    "OUTCOME_CACHED",
    "OUTCOME_REJECTED",
    "OUTCOME_TIMEOUT",
    "OUTCOME_DRAINING",
    "OUTCOME_BAD_REQUEST",
    "OUTCOME_ERROR",
    "QUEUE_WAIT_METRIC",
    "SIMULATE_METRIC",
    "TOTAL_METRIC",
    "COALESCE_WAIT_METRIC",
    "RequestContext",
    "RequestJournal",
    "RequestIds",
    "AccessLog",
]
