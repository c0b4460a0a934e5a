"""The ``repro serve`` daemon: HTTP front-end over the simulator.

Stdlib-only: a :class:`ThreadingHTTPServer` accepts JSON run requests,
validates them into typed :class:`~repro.request.RunRequest` objects,
and executes them on a bounded worker pool.  The request path layers
three protections, outermost first:

1. **run cache** — completed reports land in the tiered run cache (the
   process-wide LRU, and the L2 store with ``--store-dir``), so repeats
   never reach the queue at all, and the service keeps each recent run's
   encoded response, so repeats are not encoded again either;
2. **single-flight** — concurrent identical requests coalesce onto one
   leader; followers share its response bytes
   (`serve.singleflight.coalesced_hits`);
3. **admission control** — at most ``queue_depth`` requests wait for the
   ``workers``-wide pool; overflow is a deterministic 429 + Retry-After.

Every single-flight leader runs as ONE queue task through one
worker-side body: re-probe the cache, simulate its request, store it.
``--isolate`` runs the simulate step in a fork-spawned child via
:func:`~repro.harness.parallel.run_sweep` with ``fallback=False``, so a
per-request timeout genuinely kills the work instead of abandoning a
thread.

Routes: ``POST /run``, ``GET /healthz``, ``GET /metrics`` (Prometheus
text format, service + process-global registries), and the
``/debug/requests``, ``/debug/traces`` and ``/debug/trace/{id}`` views.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
import urllib.parse
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from ..algorithms import runner
from ..errors import (
    ProtocolError,
    ReproError,
    ServiceError,
    ServiceOverloadError,
    ServiceTimeoutError,
    ServiceUnavailableError,
)
from ..harness.parallel import SweepFailure, run_sweep
from ..obs import make_observability
from ..obs.lru import LruCache
from ..obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    global_metrics,
)
from ..obs.propagation import new_span_id, new_trace_id, parse_traceparent
from ..obs.spans import (
    SpanRecord,
    SpanStore,
    perf_to_epoch_us,
    reparent_spans,
    spans_from_tracer,
    spans_to_chrome,
)
from ..phases import RunReport
from ..request import RunRequest
from .admission import REJECTED_METRIC, ServiceQueue
from .protocol import (
    MAX_BODY_BYTES,
    encode,
    error_payload,
    parse_run_request,
    run_response,
)
from .singleflight import SingleFlight
from .store import (
    DEFAULT_STORE_MAX_BYTES,
    STORE_CORRUPT_METRIC,
    STORE_EVICTIONS_METRIC,
    STORE_HITS_METRIC,
    STORE_MISSES_METRIC,
    ResultStore,
)
from .telemetry import (
    COALESCE_WAIT_METRIC,
    OUTCOME_BAD_REQUEST,
    OUTCOME_CACHED,
    OUTCOME_COALESCED,
    OUTCOME_DRAINING,
    OUTCOME_ERROR,
    OUTCOME_REJECTED,
    OUTCOME_SIMULATED,
    OUTCOME_TIMEOUT,
    QUEUE_WAIT_METRIC,
    SIMULATE_METRIC,
    TOTAL_METRIC,
    AccessLog,
    RequestContext,
    RequestIds,
    RequestJournal,
)

REQUESTS_METRIC = "serve.requests"
SIMULATIONS_METRIC = "serve.simulations"
#: Counter prefix of the response-bytes memo (``.hits``/``.misses``/``.evictions``).
RESPONSE_CACHE_METRIC = "serve.response_cache"


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service instance (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 8765
    workers: int = 2
    queue_depth: int = 8
    request_timeout_s: Optional[float] = None
    retry_after_s: float = 1.0
    run_isolated: bool = False
    drain_timeout_s: float = 30.0
    #: Master switch for request-level telemetry (journal + stage
    #: latency histograms).  Off, the service records only the PR-4
    #: counters/gauges — and responses are byte-identical either way.
    telemetry: bool = True
    #: JSON-lines access log destination (a path, or "-" for stderr);
    #: None (the default) disables access logging entirely.
    access_log: Optional[str] = None
    #: Ring-buffer capacity of the /debug/requests journal.
    journal_size: int = 256
    #: Master switch for distributed tracing: W3C ``traceparent``
    #: propagation, per-stage + per-phase span records, and the
    #: ``GET /debug/trace/{trace_id}`` span store.  Like telemetry,
    #: responses are byte-identical either way (pinned by tests).
    tracing: bool = True
    #: How many recent traces the in-memory span store retains.
    trace_capacity: int = 128
    #: Per-trace span cap; spans beyond it are counted as dropped.
    trace_spans: int = 2048
    #: Directory of the persistent L2 result store; ``None`` (the
    #: default) runs with the in-memory L1 run cache only.  With a
    #: store, cold starts serve byte-identical responses from disk.
    store_dir: Optional[str] = None
    #: Byte bound of the L2 store (LRU eviction by mtime beyond it).
    store_max_bytes: int = DEFAULT_STORE_MAX_BYTES


def _simulate_request(task: Tuple) -> Tuple[RunReport, list]:
    """Simulate one request; returns its report and its phase spans.

    ``task`` is ``(request, spans_under)``.  ``spans_under`` is ``None``
    for an untraced request, else ``(trace_id, parent_id)``: a tracer
    records the run's phases, which come back as span records hung
    under ``parent_id``.  A forked child (``--isolate``) is given
    ``("", None)`` and ships its spans back trace-less, on a track named
    after its pid, for the service to adopt with
    :func:`~repro.obs.spans.reparent_spans`.
    """
    request, spans_under = task
    if spans_under is None:
        return runner.execute_request(request).report, []
    trace_id, parent_id = spans_under
    base_us = perf_to_epoch_us(time.perf_counter())
    obs = make_observability()
    report = runner.execute_request(request, obs=obs).report
    spans = spans_from_tracer(
        obs.tracer,
        trace_id=trace_id,
        parent_id=parent_id,
        base_us=base_us,
        process="serve" if trace_id else f"worker-{os.getpid()}",
    )
    return report, spans


class SimulationService:
    """Request execution core; the HTTP handler is a thin shell over it."""

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config if config is not None else ServiceConfig()
        self.registry = MetricsRegistry()
        self.telemetry = self.config.telemetry
        self._request_ids = RequestIds()
        self.journal = (
            RequestJournal(self.config.journal_size) if self.telemetry else None
        )
        self.access_log = (
            AccessLog(self.config.access_log)
            if self.config.access_log is not None
            else None
        )
        self.spans = (
            SpanStore(
                max_traces=self.config.trace_capacity,
                max_spans_per_trace=self.config.trace_spans,
            )
            if self.config.tracing
            else None
        )
        # Recently finished leaders' simulate spans, keyed by canonical
        # cache key: a coalesced follower looks its leader up here to
        # emit the cross-trace link span.  Bounded — links on very old
        # leaders just degrade to plain coalesce-wait spans.
        self._leader_spans = LruCache(max(16, self.config.trace_capacity))
        # Pre-register every service instrument, so the first
        # exposition lists each one.
        self.registry.counter(REQUESTS_METRIC)
        self.registry.counter(SIMULATIONS_METRIC)
        self.registry.counter(REJECTED_METRIC)
        for event in ("hits", "misses", "evictions"):
            self.registry.counter(f"{RESPONSE_CACHE_METRIC}.{event}")
        # Canonical response bytes of recent runs, keyed by digest.  A
        # response is a pure function of its request, and the digest
        # hashes the request's whole wire form, so a body stored under a
        # digest is the body every later request with that digest gets.
        # Bounded like the L1 run cache it mirrors.
        self._responses = LruCache(
            runner.RUN_CACHE_SIZE,
            metrics_prefix=RESPONSE_CACHE_METRIC,
            registry=self.registry,
        )
        # L2 result store: installed process-wide so the runner's
        # tiered get/put reads through it; counters live in this
        # service's registry (pre-registered like everything else).
        self.store: Optional[ResultStore] = None
        if self.config.store_dir is not None:
            for name in (
                STORE_HITS_METRIC,
                STORE_MISSES_METRIC,
                STORE_EVICTIONS_METRIC,
                STORE_CORRUPT_METRIC,
            ):
                self.registry.counter(name)
            self.store = ResultStore(
                self.config.store_dir,
                max_bytes=self.config.store_max_bytes,
                registry=self.registry,
            )
            from ..algorithms.runner import set_result_store

            set_result_store(self.store)
        # In-flight HTTP /run requests: distinct from queue in-flight —
        # a request that left the queue still journals its outcome and
        # flushes its spans in finish_request, and drain() must wait
        # for that, not just for the queue (see the drain test).
        self._http_cond = threading.Condition()
        self._http_inflight = 0
        if self.telemetry:
            for name in (
                QUEUE_WAIT_METRIC,
                SIMULATE_METRIC,
                TOTAL_METRIC,
                COALESCE_WAIT_METRIC,
            ):
                self.registry.histogram(name, buckets=DEFAULT_LATENCY_BUCKETS)
        self._singleflight = SingleFlight(
            registry=self.registry,
            observe_wait=(
                self.registry.histogram(COALESCE_WAIT_METRIC).observe
                if self.telemetry
                else None
            ),
        )
        self._queue = ServiceQueue(
            workers=self.config.workers,
            queue_depth=self.config.queue_depth,
            registry=self.registry,
            retry_after_s=self.config.retry_after_s,
            observe_wait=(
                self.registry.histogram(QUEUE_WAIT_METRIC).observe
                if self.telemetry
                else None
            ),
        )
        self._draining = False

    # -- per-request telemetry ------------------------------------------
    def begin_request(self, traceparent: Optional[str] = None) -> RequestContext:
        """Admit one HTTP request: assign its ID, stamp its start.

        With tracing enabled the request joins the client's trace when
        a well-formed W3C ``traceparent`` header came along, and roots
        a fresh trace otherwise, so every served request is traceable.
        """
        ctx = RequestContext(
            request_id=self._request_ids.next_id(),
            started=time.perf_counter(),
        )
        with self._http_cond:
            self._http_inflight += 1
        if self.spans is not None:
            remote = parse_traceparent(traceparent)
            if remote is not None:
                ctx.trace_id = remote.trace_id
                ctx.parent_span_id = remote.span_id
            else:
                ctx.trace_id = new_trace_id()
            ctx.span_id = new_span_id()
        return ctx

    def finish_request(
        self,
        ctx: RequestContext,
        *,
        method: str,
        path: str,
        status: int,
        error: Optional[BaseException] = None,
    ) -> None:
        """Close out one request: histogram, journal, access log, spans.

        The journal append and span flush happen *before* the in-flight
        count drops, so ``drain()`` returning guarantees every admitted
        request's outcome is journaled and its trace is stored — a
        request admitted before SIGTERM but completing after is not
        lost (pinned by the drain-ordering regression test).
        """
        try:
            total_s = time.perf_counter() - ctx.started
            if error is not None:
                ctx.outcome = _classify(error)[2]
            elif ctx.outcome is None:
                ctx.outcome = OUTCOME_ERROR
            record = ctx.record(status=status, total_s=total_s)
            if self.telemetry:
                self.registry.histogram(TOTAL_METRIC).observe(total_s)
                self.journal.append(record)
            if self.spans is not None and ctx.trace_id is not None:
                self._flush_spans(ctx, status=status, total_s=total_s)
            if self.access_log is not None:
                fields = {k: v for k, v in record.items() if k != "status"}
                self.access_log.write(method, path, status, **fields)
        finally:
            with self._http_cond:
                self._http_inflight -= 1
                self._http_cond.notify_all()

    def _flush_spans(
        self, ctx: RequestContext, *, status: int, total_s: float
    ) -> None:
        """Assemble and store this request's span tree.

        Runs before the response bytes leave (like the journal append),
        so a client that has seen its response finds the stitched trace
        at ``/debug/trace/{trace_id}`` — read-your-writes.
        """
        # The request's own spans go first, so the per-trace span cap
        # drops phase spans before it drops the tree's root.
        children, ctx.spans = ctx.spans, []
        self._span(
            ctx,
            "serve.request",
            ctx.started,
            total_s,
            span_id=ctx.span_id,
            status="ok" if status < 400 else "error",
            request_id=ctx.request_id,
            outcome=ctx.outcome,
            **{"http.status": status},
        )
        if ctx.queue_entered is not None and ctx.queue_wait_s is not None:
            self._span(ctx, "serve.queue_wait", ctx.queue_entered, ctx.queue_wait_s)
        ctx.spans.extend(children)
        self.spans.add(ctx.spans)

    def log_access(self, method: str, path: str, status: int) -> None:
        """Access-log one non-/run request (no journal entry)."""
        if self.access_log is not None:
            self.access_log.write(method, path, status)

    def journal_payload(self, limit: Optional[int] = None) -> Dict[str, Any]:
        """The ``GET /debug/requests`` body."""
        if self.journal is None:
            return {"enabled": False, "capacity": 0, "requests": []}
        return {
            "enabled": True,
            "capacity": self.journal.capacity,
            "requests": self.journal.tail(limit),
        }

    def traces_payload(self) -> Dict[str, Any]:
        """The ``GET /debug/traces`` body: known trace IDs, newest last."""
        if self.spans is None:
            return {"enabled": False, "traces": []}
        return {
            "enabled": True,
            "traces": self.spans.trace_ids(),
            "dropped_spans": self.spans.dropped_spans,
        }

    def trace_payload(
        self, trace_id: str, *, raw: bool = False
    ) -> Optional[Dict[str, Any]]:
        """The ``GET /debug/trace/{trace_id}`` body; ``None`` if unknown.

        Default form is a stitched Chrome ``trace_event`` document ready
        for ``ui.perfetto.dev``; ``?raw=1`` returns the schema-versioned
        span records instead.
        """
        if self.spans is None:
            return None
        spans = self.spans.get(trace_id)
        if not spans:
            return None
        if raw:
            return {
                "trace_id": trace_id,
                "spans": [span.to_dict() for span in spans],
            }
        return spans_to_chrome(spans)

    # -- request path ---------------------------------------------------
    def handle_run(
        self, request: RunRequest, ctx: Optional[RequestContext] = None
    ) -> bytes:
        """Execute (or coalesce, or reject) one validated run request.

        Returns the canonical response body.  The tiered cache is probed
        first, as for a request whose body was never encoded, so journal
        outcomes, store spans and the L1/L2 attribution do not depend on
        the response memo; only the encoding is skipped on a memo hit.
        """
        digest = request.cache_digest()
        if ctx is not None:
            # One canonical string identity everywhere: this same digest
            # names the L2 entry on disk and places the key on the
            # cluster front's hash ring (pinned by a test).
            ctx.cache_key = digest
        if self._draining:
            self.registry.counter(REJECTED_METRIC).inc(reason="draining")
            raise ServiceUnavailableError("service is draining; not accepting work")
        self.registry.counter(REQUESTS_METRIC).inc(route="run")
        probe_started = time.perf_counter()
        report, tier = runner.get_cached_report(request, with_tier=True)
        if self.store is not None and tier != "l1":
            # The probe reached the disk tier: its latency belongs in
            # the request's trace tree.
            self._span(ctx, "serve.store.get", probe_started, tier=tier or "miss")
        if report is not None:
            if ctx is not None:
                ctx.outcome = OUTCOME_CACHED
            return self._response_bytes(digest, request, report)
        wait_started = time.perf_counter()
        # The leader encodes inside its single-flight call, so the
        # followers share its bytes, not just its report.
        body = self._singleflight.do(
            digest,
            lambda: self._response_bytes(digest, request, self._lead(request, ctx)),
            timeout_s=self.config.request_timeout_s,
        )
        if ctx is not None and ctx.outcome is None:
            # Our leader body never ran: a concurrent leader's did.  The
            # wait links across traces to that leader's simulate span.
            ctx.outcome = OUTCOME_COALESCED
            self._span(
                ctx,
                "serve.coalesce_wait",
                wait_started,
                link=self._leader_spans.get(digest),
            )
        return body

    def _response_bytes(
        self, digest: str, request: RunRequest, report: RunReport
    ) -> bytes:
        """The run's encoded response, from the memo or encoded once now.

        Two requests that miss the memo at the same moment both encode;
        their bodies are identical, so either may be the one kept.
        """
        body = self._responses.get(digest)
        if body is None:
            body = encode(run_response(request, report))
            self._responses.put(digest, body)
        return body

    def _lead(self, request: RunRequest, ctx: Optional[RequestContext]) -> RunReport:
        """Single-flight leader body: run :meth:`_simulate` as ONE queue task.

        The request's outcome is ``cached`` when the worker's re-probe
        found its report, else ``simulated``.
        """
        task = self._queue.submit(lambda: self._simulate(request, ctx))
        try:
            report, simulated = self._queue.wait(
                task, timeout_s=self.config.request_timeout_s
            )
        finally:
            if ctx is not None:
                ctx.queue_wait_s = task.queue_wait_s
                ctx.queue_entered = task.submitted_at
        if ctx is not None:
            ctx.outcome = OUTCOME_SIMULATED if simulated else OUTCOME_CACHED
        return report

    def _simulate(
        self, request: RunRequest, ctx: Optional[RequestContext]
    ) -> Tuple[RunReport, bool]:
        """Worker-side body of a leader; returns ``(report, simulated)``.

        Re-probes the cache (a leader that finished since the handler's
        probe served it: not a simulation), else simulates the request,
        records ``serve.simulate`` with its phase spans beneath it, and
        stores the report.  With ``--isolate`` only the simulate step
        runs in a child process, so a cache hit forks nothing and each
        report reaches this process's tiers once.
        """
        report = runner.get_cached_report(request)
        if report is not None:
            return report, False
        self.registry.counter(SIMULATIONS_METRIC).inc()
        traced = self._traced(ctx)
        sim_span_id = new_span_id() if traced else None
        started = time.perf_counter()
        if not self.config.run_isolated:
            report, spans = _simulate_request(
                (request, (ctx.trace_id, sim_span_id) if traced else None)
            )
        else:
            report, spans = self._run_in_child(
                (request, ("", None) if traced else None)
            )
            if traced:
                spans = reparent_spans(
                    spans,
                    trace_id=ctx.trace_id,
                    parent_id=sim_span_id,
                    source="isolated worker",
                )
        simulate_s = time.perf_counter() - started
        if ctx is not None:
            ctx.simulate_s = simulate_s
        if traced:
            self._span(
                ctx,
                "serve.simulate",
                started,
                simulate_s,
                span_id=sim_span_id,
                algorithm=request.algorithm,
                mode=request.mode,
                isolated=self.config.run_isolated,
            )
            ctx.spans.extend(spans)
            # Published so coalesced followers can link to this span.
            self._leader_spans.put(
                request.cache_digest(), (ctx.trace_id, sim_span_id)
            )
        if self.telemetry:
            self.registry.histogram(SIMULATE_METRIC).observe(simulate_s)
        put_started = time.perf_counter()
        runner.put_cached_report(request, report)
        if self.store is not None:
            self._span(ctx, "serve.store.put", put_started)
        return report, True

    def _run_in_child(self, task: Tuple) -> Tuple[RunReport, list]:
        """:func:`_simulate_request` in a killable child (hard deadline)."""
        try:
            (outcome,) = run_sweep(
                [task],
                _simulate_request,
                jobs=2,  # >1 forces process isolation even for one task
                timeout_s=self.config.request_timeout_s,
                retries=0,
                fallback=False,
            )
        except SweepFailure as failure:
            if failure.reason == "timeout":
                raise ServiceTimeoutError(
                    f"isolated simulation exceeded "
                    f"{self.config.request_timeout_s}s"
                ) from failure
            raise ServiceError(f"isolated simulation failed: {failure}") from failure
        return outcome.value

    def _traced(self, ctx: Optional[RequestContext]) -> bool:
        return self.spans is not None and ctx is not None and ctx.trace_id is not None

    def _span(
        self,
        ctx: Optional[RequestContext],
        name: str,
        started: float,
        duration_s: Optional[float] = None,
        *,
        span_id: Optional[str] = None,
        link: Optional[Tuple[str, str]] = None,
        status: str = "ok",
        **attributes: Any,
    ) -> Optional[str]:
        """Record one service span in ``ctx``'s trace; returns its id.

        Does nothing (and returns ``None``) for an untraced request.
        The request's own span (``span_id=ctx.span_id``) hangs off the
        client's span, every other one off the request's.  ``link`` is
        a ``(trace_id, span_id)`` in another request's trace; the
        duration defaults to the time since ``started``.
        """
        if not self._traced(ctx):
            return None
        if span_id is None:
            span_id = new_span_id()
        if duration_s is None:
            duration_s = time.perf_counter() - started
        ctx.spans.append(
            SpanRecord(
                trace_id=ctx.trace_id,
                span_id=span_id,
                parent_id=(
                    ctx.parent_span_id if span_id == ctx.span_id else ctx.span_id
                ),
                name=name,
                category="serve",
                status=status,
                process="serve",
                start_us=perf_to_epoch_us(started),
                duration_us=duration_s * 1e6,
                attributes=attributes,
                links=(
                    [] if link is None else [{"trace_id": link[0], "span_id": link[1]}]
                ),
            )
        )
        return span_id

    # -- introspection / lifecycle --------------------------------------
    def health(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self._draining else "ok",
            "workers": self.config.workers,
            "queue_depth": self._queue.depth,
            "queue_capacity": self.config.queue_depth,
            "inflight": self._queue.inflight,
        }

    def metrics_text(self) -> str:
        return (
            self.registry.render_prometheus() + global_metrics().render_prometheus()
        )

    def drain(self, *, timeout_s: Optional[float] = None) -> bool:
        """Refuse new work, then wait for queued + in-flight requests.

        Waits for *both* layers: the worker queue AND the HTTP requests
        still inside their handler (a request that left the queue still
        has to journal its outcome and flush its spans before it counts
        as finished).  Only when both hit zero is every admitted
        request's telemetry durable.
        """
        self._draining = True
        if timeout_s is None:
            timeout_s = self.config.drain_timeout_s
        deadline = time.monotonic() + timeout_s
        if not self._queue.drain(timeout_s=timeout_s):
            return False
        with self._http_cond:
            return self._http_cond.wait_for(
                lambda: self._http_inflight == 0,
                timeout=max(0.0, deadline - time.monotonic()),
            )

    def close(self) -> None:
        """Release operator-facing resources (the access-log stream)."""
        if self.access_log is not None:
            self.access_log.close()
        if self.store is not None:
            from ..algorithms.runner import get_result_store, set_result_store

            # Uninstall only our own store: another service instance may
            # have installed its own since (tests run many services).
            if get_result_store() is self.store:
                set_result_store(None)


#: (exception class, HTTP status, stable error code, journal outcome);
#: checked in order.  Any other exception is a 500 ``internal`` error.
_ERRORS: Tuple[Tuple[type, int, str, str], ...] = (
    (ProtocolError, 400, "bad-request", OUTCOME_BAD_REQUEST),
    (ServiceOverloadError, 429, "overloaded", OUTCOME_REJECTED),
    (ServiceUnavailableError, 503, "draining", OUTCOME_DRAINING),
    (ServiceTimeoutError, 504, "timeout", OUTCOME_TIMEOUT),
)


def _classify(error: BaseException) -> Tuple[int, str, str]:
    """``(status, code, outcome)`` of a failed ``/run`` request."""
    for cls, status, code, outcome in _ERRORS:
        if isinstance(error, cls):
            return status, code, outcome
    return 500, "internal", OUTCOME_ERROR


#: Seconds a connection may stall (idle, or mid-request) before its
#: handler gives up on it.  Below the 30 s drain default, so a client
#: that stops sending cannot hold a drain open.
READ_TIMEOUT_S = 10.0


class OneSendHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 handler that writes each response in a single send.

    Writing the head and the body separately lets Nagle's algorithm hold
    the body until the client acknowledges the head, which a delayed-ACK
    client does only after ~40 ms: every response on a reused
    connection would stall that long.
    """

    protocol_version = "HTTP/1.1"
    sys_version = ""
    timeout = READ_TIMEOUT_S
    #: Set once the client reset the connection (while its body was
    #: read or its response written): nothing more is sent to it.
    client_gone = False

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # request logging is the metrics registry's job

    def _read_body(self) -> bytes:
        """The request body, as ``Content-Length`` announced it.

        A missing ``Content-Length`` means an empty body.  One that is
        not a decimal count, or is over :data:`MAX_BODY_BYTES`, and a
        body that does not arrive in full (the client reset, hung up, or
        stalled past :data:`READ_TIMEOUT_S`) are bad requests, and the
        connection is closed after them: its unread bytes cannot be
        told from the next request.
        """
        announced = self.headers.get("Content-Length", "0").strip(" \t")
        if not (announced.isascii() and announced.isdigit()):
            self.close_connection = True
            raise ProtocolError(f"malformed Content-Length {announced!r}")
        length = int(announced)
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise ProtocolError(
                f"request body too large ({length} bytes > {MAX_BODY_BYTES})"
            )
        try:
            body = self.rfile.read(length)
        except OSError as error:
            self.close_connection = True
            self.client_gone = isinstance(error, ConnectionError)
            raise ProtocolError(f"request body not received: {error!r}") from error
        if len(body) < length:
            self.close_connection = True
            raise ProtocolError(
                f"request body ended after {len(body)} of {length} bytes"
            )
        return body

    def _discard_body(self) -> None:
        """Read and drop the body of a request no route takes.

        Left unread on a keep-alive connection, it would be parsed as
        the next request.  It is read like any body, under the same size
        bound and read timeout; one that cannot be read closes the
        connection.
        """
        try:
            self._read_body()
        except ProtocolError:
            pass  # _read_body has marked the connection to close

    def _send(
        self,
        status: int,
        body: bytes,
        *,
        content_type: str = "application/json",
        extra_headers: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        if self.client_gone:
            return
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in extra_headers:
            self.send_header(name, value)
        self._headers_buffer.extend((b"\r\n", body))
        try:
            self.flush_headers()
        except ConnectionError:
            # The client reset or hung up before its response was
            # written: like a body that never arrived, this ends the
            # connection quietly (the request is already journaled).
            self.client_gone = True
            self.close_connection = True


class RequestHandler(OneSendHandler):
    """Routes HTTP verbs to the :class:`SimulationService` on the server."""

    server_version = "repro-serve"

    @property
    def service(self) -> SimulationService:
        return self.server.service  # type: ignore[attr-defined]

    # -- response plumbing ---------------------------------------------
    def _error_response(
        self, error: BaseException
    ) -> Tuple[int, bytes, Tuple[Tuple[str, str], ...]]:
        status, code, _ = _classify(error)
        extra: Tuple[Tuple[str, str], ...] = ()
        payload = error_payload(status, code, str(error))
        if isinstance(error, ServiceOverloadError):
            payload["retry_after_s"] = error.retry_after_s
            extra = (("Retry-After", f"{error.retry_after_s:g}"),)
        return status, encode(payload), extra

    def _reply(
        self, status: int, body: bytes, *, content_type: str = "application/json"
    ) -> None:
        """Access-log a non-/run response, then send it.

        The same order ``/run`` keeps: a client that has seen the
        response finds its line in the log, and a shutdown that closes
        the log after the last response cannot race the write.
        """
        path = urllib.parse.urlsplit(self.path).path
        self.service.log_access(self.command, path, status)
        self._send(status, body, content_type=content_type)

    def _not_found(self) -> None:
        self._reply(
            404, encode(error_payload(404, "not-found", f"no route {self.path!r}"))
        )

    # -- verbs ----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — http.server API
        parsed = urllib.parse.urlsplit(self.path)
        if parsed.path == "/healthz":
            self._reply(200, encode(self.service.health()))
        elif parsed.path == "/metrics":
            self._reply(
                200,
                self.service.metrics_text().encode("utf-8"),
                content_type="text/plain; charset=utf-8",
            )
        elif parsed.path == "/debug/requests":
            limit = _journal_limit(parsed.query)
            self._reply(200, encode(self.service.journal_payload(limit)))
        elif parsed.path == "/debug/traces":
            self._reply(200, encode(self.service.traces_payload()))
        elif parsed.path.startswith("/debug/trace/"):
            trace_id = parsed.path[len("/debug/trace/") :]
            raw = "1" in urllib.parse.parse_qs(parsed.query).get("raw", [])
            payload = self.service.trace_payload(trace_id, raw=raw)
            if payload is None:
                self._reply(
                    404,
                    encode(
                        error_payload(404, "unknown-trace", f"no trace {trace_id!r}")
                    ),
                )
            else:
                self._reply(200, encode(payload))
        else:
            self._not_found()

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        if self.path != "/run":
            self._discard_body()
            self._not_found()
            return
        ctx = self.service.begin_request(self.headers.get("traceparent"))
        rid_header: Tuple[Tuple[str, str], ...] = (
            ("X-Request-Id", ctx.request_id),
        )
        if ctx.trace_id is not None:
            rid_header += (("X-Trace-Id", ctx.trace_id),)
        error: Optional[BaseException] = None
        status, body, extra = 500, b"", ()
        try:
            request = parse_run_request(self._read_body())
            body = self.service.handle_run(request, ctx)
        except Exception as exc:  # noqa: BLE001 — every failure gets a response
            if not isinstance(exc, ReproError):
                traceback.print_exc()  # a bug, not a refusal: keep its trace
            error = exc
            status, body, extra = self._error_response(exc)
        else:
            status = 200
        finally:
            # Every begun request is finished, however it ended.  Journal
            # before the response bytes leave: a client that has seen
            # this response will find its record at /debug/requests.
            self.service.finish_request(
                ctx, method="POST", path="/run", status=status, error=error
            )
        self._send(status, body, extra_headers=extra + rid_header)


def _journal_limit(query: str) -> Optional[int]:
    """Parse ``?n=`` from a ``/debug/requests`` query string."""
    for value in urllib.parse.parse_qs(query).get("n", []):
        try:
            return max(0, int(value))
        except ValueError:
            continue
    return None


class ServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that carries the service for its handlers."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: SimulationService):
        super().__init__(address, RequestHandler)
        self.service = service


def make_server(
    service: SimulationService, *, host: str | None = None, port: int | None = None
) -> ServiceServer:
    """Bind the HTTP server for ``service`` (port 0 picks a free port)."""
    if host is None:
        host = service.config.host
    if port is None:
        port = service.config.port
    return ServiceServer((host, port), service)


def run_service(config: ServiceConfig) -> int:
    """Foreground entry point for ``repro serve``; blocks until signalled.

    SIGTERM/SIGINT stop accepting connections, then drain queued and
    in-flight work before returning (0 on a clean drain, 1 otherwise).
    """
    service = SimulationService(config)
    httpd = make_server(service)

    def _shutdown(signum: int, frame: Any) -> None:
        # shutdown() must not run on the serve_forever thread (deadlock);
        # signal handlers execute on the main thread, which IS that
        # thread here, so hand the call to a helper.
        service._draining = True
        threading.Thread(target=httpd.shutdown, daemon=True).start()

    previous = {
        sig: signal.signal(sig, _shutdown) for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        host, port = httpd.server_address[:2]
        print(f"repro serve listening on http://{host}:{port}", flush=True)
        httpd.serve_forever()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        httpd.server_close()
    drained = service.drain()
    service.close()
    print(
        "repro serve drained cleanly" if drained else "repro serve drain timed out",
        flush=True,
    )
    return 0 if drained else 1
