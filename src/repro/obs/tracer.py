"""Structured tracer: one observed run's span records and counter samples.

The tracer records three kinds of events against the process's one
wall-clock anchor (:func:`~repro.obs.spans.perf_to_epoch_us`):

* **spans** — nestable units of simulator work (a kernel launch, an SCU
  operation, one algorithm iteration), each recorded once as a
  trace-less :class:`~repro.obs.spans.SpanRecord` with an absolute
  epoch-µs start, whose parent is the span open around it;
* **instants** — point-in-time markers, recorded as zero-duration span
  records;
* **counters** — named value series (``frontier.size`` per iteration)
  that Perfetto and ``chrome://tracing`` render as stacked graphs.

:meth:`Tracer.to_chrome` is :func:`~repro.obs.spans.spans_to_chrome` of
the records (complete ``"X"`` events) plus the counter samples, loadable
directly by Perfetto; :meth:`Tracer.write_jsonl` writes one span record
per line for ad-hoc ``jq``-style analysis.  The same records are what the
service adopts into a request's trace, what a forked sweep worker ships
back, and what :func:`~repro.obs.profile.wall_profile` folds.

Tracing must never perturb the simulation, so the tracer only *records*:
it takes no locks, mutates no simulator state, and when disabled (the
:data:`NULL_TRACER` singleton) every operation is a constant-time no-op
— hot paths guard any argument construction behind ``tracer.enabled``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

from ..errors import ObservabilityError
from .propagation import new_span_id
from .spans import SpanRecord, perf_to_epoch_us, spans_to_chrome


class Tracer:
    """Collects span records and counter samples; one instance per observed run.

    ``process`` names the track the records are drawn on (``serve``,
    ``worker-<pid>``); the records carry no trace id until a service or
    sweep adopts them into one with :func:`~repro.obs.spans.reparent_spans`.
    """

    enabled = True

    def __init__(
        self,
        clock: Callable[[], int] = time.perf_counter_ns,
        *,
        process: str = "sim",
    ):
        self._clock = clock
        self.process = process
        #: Open spans, innermost last, each with its start clock reading.
        self._open: List[Tuple[SpanRecord, int]] = []
        self.spans: List[SpanRecord] = []
        #: Counter samples: (name, epoch µs, values).
        self.counters: List[Tuple[str, float, Dict[str, float]]] = []

    def _record(
        self, name: str, category: str, now_ns: int, args: Dict[str, Any]
    ) -> SpanRecord:
        record = SpanRecord(
            trace_id="",
            span_id=new_span_id(),
            parent_id=self._open[-1][0].span_id if self._open else None,
            name=name,
            category=category,
            process=self.process,
            start_us=perf_to_epoch_us(now_ns / 1e9),
            duration_us=0.0,
            attributes=args,
        )
        self.spans.append(record)
        return record

    # -- spans --------------------------------------------------------------

    def begin(self, name: str, category: str = "sim", **args: Any) -> SpanRecord:
        """Open a span; prefer the :meth:`span` context manager."""
        now = self._clock()
        record = self._record(name, category, now, args)
        self._open.append((record, now))
        return record

    def end(self) -> None:
        """Close the innermost open span."""
        if not self._open:
            raise ObservabilityError("Tracer.end() called with no open span")
        record, started = self._open.pop()
        record.duration_us = (self._clock() - started) / 1000.0

    @contextmanager
    def span(
        self, name: str, category: str = "sim", **args: Any
    ) -> Iterator[SpanRecord]:
        """Nestable span context: ``with tracer.span("bfs.iteration"): ...``.

        The body may :meth:`~repro.obs.spans.SpanRecord.annotate` the
        yielded record with its outcome (simulated time, DRAM bytes).
        """
        record = self.begin(name, category, **args)
        try:
            yield record
        finally:
            self.end()

    # -- instants and counters ----------------------------------------------

    def instant(self, name: str, category: str = "sim", **args: Any) -> None:
        """A zero-duration span record under the open span."""
        self._record(name, category, self._clock(), args)

    def counter(self, name: str, **values: float) -> None:
        """Record one sample of a counter series (``frontier.size`` etc.)."""
        if not values:
            raise ObservabilityError(f"counter {name!r} needs at least one value")
        self.counters.append(
            (
                name,
                perf_to_epoch_us(self._clock() / 1e9),
                {k: float(v) for k, v in values.items()},
            )
        )

    # -- export -------------------------------------------------------------

    def to_chrome(self) -> Dict[str, Any]:
        """The span records as a Chrome trace, plus the counter samples.

        Every record is on this tracer's one track, which
        :func:`spans_to_chrome` numbers pid 1; the samples join that
        track on the same time origin, the first span's start (a sample
        taken before it is drawn there).
        """
        doc = spans_to_chrome(self.spans)
        origin_us = doc["otherData"]["origin_us"]
        doc["traceEvents"].extend(
            {
                "name": name,
                "cat": "counter",
                "ph": "C",
                "ts": max(0.0, epoch_us - origin_us),
                "pid": 1,
                "tid": 1,
                "args": values,
            }
            for name, epoch_us, values in self.counters
        )
        return doc

    def write_chrome(self, path: str) -> None:
        """Write a ``trace.json`` loadable by chrome://tracing / Perfetto."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome(), handle)

    def write_jsonl(self, path: str) -> None:
        """Write one span record per line (for jq / pandas consumption)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")


class _NullSpan:
    """Shared no-op span: context manager and record in one object."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def annotate(self, **args: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """Disabled tracer: every operation is a constant-time no-op."""

    enabled = False

    def __init__(self):  # no clock reads, no buffers
        self.spans = []
        self.counters = []

    def begin(self, name: str, category: str = "sim", **args: Any) -> SpanRecord:
        return _NULL_SPAN  # type: ignore[return-value]

    def end(self) -> None:
        pass

    def span(self, name: str, category: str = "sim", **args: Any) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, category: str = "sim", **args: Any) -> None:
        pass

    def counter(self, name: str, **values: float) -> None:
        pass


#: Process-wide disabled tracer; the default everywhere.
NULL_TRACER = NullTracer()
