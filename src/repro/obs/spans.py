"""Distributed-trace spans: records, the bounded store, stitching.

Every span is one schema-versioned JSON **span record** that names its
trace, its parent, and its absolute wall-clock start in epoch
microseconds, taken from this process's one clock anchor
(:func:`perf_to_epoch_us`).  The simulator's
:class:`~repro.obs.tracer.Tracer` records its spans in this form, as do
the serve front-end and the loadtest client, so spans recorded in any of
them — or in a forked sweep worker — are collected into one store and
re-assembled ("stitched") into a single Chrome trace per ``trace_id``.

The pieces:

* :class:`SpanRecord` — one span as a JSON-serializable record
  (``schema_version`` :data:`SPAN_SCHEMA_VERSION`), including optional
  **links** to spans in *other* traces (how a coalesced follower points
  at the leader's simulation span);
* :func:`reparent_spans` — adopt a tracer's trace-less records, in
  process or shipped back by a forked worker, into a trace: rewrite
  ``trace_id`` everywhere and attach the roots to a new parent, leaving
  internal parent/child edges intact — the stitching protocol;
* :class:`SpanStore` — bounded in-memory home of recent traces, the
  backing of ``GET /debug/trace/{trace_id}``;
* :func:`spans_to_chrome` — one stitched trace as a Chrome
  ``trace_event`` JSON object, with each recording process on its own
  track.

Span recording is observability, not simulation: nothing here is read
by any simulated component, and the serve A/B test pins that responses
are byte-identical with tracing on or off.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ObservabilityError

#: Bump on any backwards-incompatible change to the span-record layout.
SPAN_SCHEMA_VERSION = 1

#: Tracer categories that mark *simulation* work (as opposed to service
#: plumbing): algorithm iterations, GPU kernel launches, SCU operations.
SIM_SPAN_CATEGORIES = ("algorithm", "gpu-kernel", "scu", "sim")

# Wall-clock anchor: pairs one perf_counter reading with one epoch
# reading so monotonic stamps taken anywhere in this process convert to
# absolute microseconds.  Forked workers inherit (and share) the parent
# machine's clocks, which is what makes cross-process stitching line up.
_ANCHOR_PERF = time.perf_counter()
_ANCHOR_EPOCH = time.time()


def perf_to_epoch_us(perf_s: float) -> float:
    """Absolute epoch microseconds of one ``time.perf_counter()`` stamp."""
    return (_ANCHOR_EPOCH + (perf_s - _ANCHOR_PERF)) * 1e6


def epoch_us_now() -> float:
    """Absolute epoch microseconds, right now."""
    return time.time() * 1e6


def _attr_value(value: Any) -> Any:
    """One attribute value coerced to a JSON-serializable shape.

    Tracer span attributes routinely carry domain objects (enums,
    dataclass instances); span records are wire artifacts, so anything
    that is not a JSON scalar or container falls back to ``str()``
    rather than failing the whole export.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else str(value)
    if isinstance(value, (list, tuple)):
        return [_attr_value(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _attr_value(item) for key, item in value.items()}
    return str(value)


def sanitize_attributes(attributes: Dict[str, Any]) -> Dict[str, Any]:
    """A JSON-safe copy of one span's attribute dict."""
    return {str(key): _attr_value(value) for key, value in attributes.items()}


@dataclass
class SpanRecord:
    """One completed span of a distributed trace.

    ``start_us`` is absolute (unix-epoch microseconds); ``parent_id``
    is ``None`` only for a root span.  ``process`` is the logical track
    the span was recorded on (``client``, ``serve``, ``worker-<pid>``)
    and ``links`` are cross-trace references (``[{"trace_id": ...,
    "span_id": ...}]``) — a link is weaker than a parent: the linked
    span belongs to another request's trace.
    """

    trace_id: str
    span_id: str
    name: str
    start_us: float
    duration_us: float
    parent_id: Optional[str] = None
    category: str = "serve"
    status: str = "ok"
    process: str = "serve"
    attributes: Dict[str, Any] = field(default_factory=dict)
    links: List[Dict[str, str]] = field(default_factory=list)

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us

    def annotate(self, **attributes: Any) -> "SpanRecord":
        """Attach attributes known only once the span's work is done.

        A phase records its *outcome* this way — simulated time, energy,
        DRAM bytes — computed after the span began.
        """
        self.attributes.update(attributes)
        return self

    def to_dict(self) -> Dict[str, Any]:
        """The schema-versioned JSON wire/store form."""
        payload: Dict[str, Any] = {
            "schema_version": SPAN_SCHEMA_VERSION,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "status": self.status,
            "process": self.process,
            "start_us": float(self.start_us),
            "duration_us": float(self.duration_us),
        }
        if self.attributes:
            payload["attributes"] = sanitize_attributes(self.attributes)
        if self.links:
            payload["links"] = [dict(link) for link in self.links]
        return payload

    @classmethod
    def from_dict(cls, payload: Any, *, source: str = "span") -> "SpanRecord":
        """Validate one wire-form record back into a :class:`SpanRecord`."""
        if not isinstance(payload, dict):
            raise ObservabilityError(f"{source}: expected a JSON object")
        version = payload.get("schema_version")
        if version != SPAN_SCHEMA_VERSION:
            raise ObservabilityError(
                f"{source}: span schema version {version!r} is not supported "
                f"(this build reads version {SPAN_SCHEMA_VERSION})"
            )
        for name in ("span_id", "name", "start_us", "duration_us"):
            if name not in payload:
                raise ObservabilityError(f"{source}: missing field {name!r}")
        start_us = float(payload["start_us"])
        duration_us = float(payload["duration_us"])
        if not math.isfinite(start_us) or not math.isfinite(duration_us):
            raise ObservabilityError(f"{source}: non-finite span timestamps")
        return cls(
            trace_id=str(payload.get("trace_id", "")),
            span_id=str(payload["span_id"]),
            parent_id=(
                None
                if payload.get("parent_id") is None
                else str(payload["parent_id"])
            ),
            name=str(payload["name"]),
            category=str(payload.get("category", "serve")),
            status=str(payload.get("status", "ok")),
            process=str(payload.get("process", "serve")),
            start_us=start_us,
            duration_us=max(0.0, duration_us),
            attributes=dict(payload.get("attributes", {})),
            links=[dict(link) for link in payload.get("links", [])],
        )


def reparent_spans(
    spans: Iterable[Any],
    *,
    trace_id: str,
    parent_id: Optional[str],
    source: str = "worker span",
) -> List[SpanRecord]:
    """Adopt foreign span records into a trace (the stitching protocol).

    ``spans`` may be :class:`SpanRecord` instances or their ``to_dict``
    wire form (what a forked worker ships back over its result pipe).
    Every record's ``trace_id`` is rewritten and records without a
    parent — the worker's local roots — are attached under
    ``parent_id``; parent/child edges *within* the batch are preserved.
    Returns new records; the inputs are not mutated.
    """
    adopted: List[SpanRecord] = []
    for span in spans:
        record = (
            replace(span) if isinstance(span, SpanRecord)
            else SpanRecord.from_dict(span, source=source)
        )
        record.trace_id = trace_id
        if record.parent_id is None:
            record.parent_id = parent_id
        adopted.append(record)
    return adopted


def count_sim_phase_spans(spans: Iterable[SpanRecord]) -> int:
    """How many spans mark simulation work (vs. service plumbing)."""
    return sum(1 for span in spans if span.category in SIM_SPAN_CATEGORIES)


class SpanStore:
    """Bounded, thread-safe in-memory store of recent traces.

    Traces evict in insertion order once ``max_traces`` is exceeded
    (the store is an operator debugging aid, not durable storage), and
    one trace holds at most ``max_spans_per_trace`` spans — overflow
    spans are counted in :attr:`dropped_spans` rather than silently
    vanishing, so ``/debug/trace`` can say the trace is truncated.
    """

    def __init__(self, max_traces: int = 128, max_spans_per_trace: int = 2048):
        if max_traces < 1:
            raise ObservabilityError(
                f"span store needs at least 1 trace, got {max_traces}"
            )
        if max_spans_per_trace < 1:
            raise ObservabilityError(
                f"span store needs at least 1 span per trace, "
                f"got {max_spans_per_trace}"
            )
        self.max_traces = max_traces
        self.max_spans_per_trace = max_spans_per_trace
        self.dropped_spans = 0
        self._traces: "OrderedDict[str, List[SpanRecord]]" = OrderedDict()
        self._lock = threading.Lock()

    def add(self, spans: Iterable[SpanRecord]) -> None:
        """File each span under its ``trace_id`` (idless spans dropped)."""
        with self._lock:
            for span in spans:
                if not span.trace_id:
                    self.dropped_spans += 1
                    continue
                bucket = self._traces.get(span.trace_id)
                if bucket is None:
                    bucket = self._traces[span.trace_id] = []
                    while len(self._traces) > self.max_traces:
                        self._traces.popitem(last=False)
                if len(bucket) >= self.max_spans_per_trace:
                    self.dropped_spans += 1
                    continue
                bucket.append(span)

    def get(self, trace_id: str) -> Optional[List[SpanRecord]]:
        """All spans of one trace, sorted by start time; None if unknown."""
        with self._lock:
            bucket = self._traces.get(trace_id)
            if bucket is None:
                return None
            spans = list(bucket)
        return sorted(spans, key=lambda s: (s.start_us, s.span_id))

    def trace_ids(self) -> List[Tuple[str, int]]:
        """``(trace_id, span_count)`` pairs, oldest trace first."""
        with self._lock:
            return [(tid, len(bucket)) for tid, bucket in self._traces.items()]

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


def spans_to_chrome(spans: Sequence[SpanRecord]) -> Dict[str, Any]:
    """One stitched trace as a Chrome ``trace_event`` JSON object.

    Each recording process becomes its own pid (with a ``process_name``
    metadata event), spans become complete (``"X"``) events with
    timestamps re-based to the earliest span, and span identity
    (``span_id``/``parent_id``/``links``) rides along in ``args`` so
    Perfetto's query layer can reconstruct the tree.
    """
    spans = sorted(spans, key=lambda s: (s.start_us, s.span_id))
    origin_us = spans[0].start_us if spans else 0.0
    pids: Dict[str, int] = {}
    events: List[Dict[str, Any]] = []
    for span in spans:
        pid = pids.get(span.process)
        if pid is None:
            pid = pids[span.process] = len(pids) + 1
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": span.process},
                }
            )
        args: Dict[str, Any] = {
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "status": span.status,
        }
        if span.attributes:
            args.update(sanitize_attributes(span.attributes))
        if span.links:
            args["links"] = [dict(link) for link in span.links]
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": span.start_us - origin_us,
                "dur": span.duration_us,
                "pid": pid,
                "tid": 1,
                "args": args,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro-scu distributed tracer",
            "trace_id": spans[0].trace_id if spans else None,
            "origin_us": origin_us,
            "span_schema_version": SPAN_SCHEMA_VERSION,
        },
    }


__all__ = [
    "SPAN_SCHEMA_VERSION",
    "SIM_SPAN_CATEGORIES",
    "SpanRecord",
    "SpanStore",
    "sanitize_attributes",
    "reparent_spans",
    "count_sim_phase_spans",
    "spans_to_chrome",
    "perf_to_epoch_us",
    "epoch_us_now",
]
