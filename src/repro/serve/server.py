"""The ``repro serve`` daemon: HTTP front-end over the simulator.

Stdlib-only: a :class:`ThreadingHTTPServer` accepts JSON run requests,
validates them into typed :class:`~repro.request.RunRequest` objects,
and executes them on a bounded worker pool.  The request path layers
three protections, outermost first:

1. **run cache** — completed reports land in the tiered run cache (the
   process-wide LRU, and the L2 store with ``--store-dir``), so repeats
   never reach the queue at all;
2. **single-flight** — concurrent identical requests coalesce onto one
   leader; followers share its report (`serve.singleflight.coalesced_hits`);
3. **admission control** — at most ``queue_depth`` requests wait for the
   ``workers``-wide pool; overflow is a deterministic 429 + Retry-After.

Every single-flight leader seals a batch and runs it as ONE queue task
through one worker-side body: re-probe the cache, simulate the misses
in order, store them.  With no ``--batch-window-ms`` the batch is the
leader alone, run at once; with a window, compatible leaders meet in a
:class:`~repro.serve.batching.MicroBatcher` first.  ``--isolate`` runs
the simulate step in a fork-spawned child via
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
import urllib.parse
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

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
from .batching import (
    BATCH_BATCHES_METRIC,
    BATCH_FUSED_METRIC,
    BATCH_REQUESTS_METRIC,
    BATCH_SIZE_BUCKETS,
    BATCH_SIZE_METRIC,
    BatchMember,
    MicroBatcher,
)
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
    OUTCOME_BATCHED,
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
    #: Micro-batching admission window (milliseconds).  0 (the default)
    #: runs each single-flight leader as a batch of one, at once.
    #: Positive: the first leader for a ``(dataset, seed, gpu)``
    #: compatibility key waits this long for compatible requests, then
    #: the whole batch runs as ONE queue task of per-request simulations.
    batch_window_ms: float = 0.0
    #: Seal a window early once this many requests joined.
    batch_max: int = 8


def _simulate_requests(task: Tuple) -> Tuple[List[RunReport], list]:
    """Simulate a batch's cache misses in order; returns reports and spans.

    ``task`` is ``(requests, spans_under)``.  ``spans_under`` is ``None``
    for an untraced batch, else ``(trace_id, parent_id)``: one tracer
    records every request's phases, which come back as span records
    hung under ``parent_id``.  A forked child (``--isolate``) is given
    ``("", None)`` and ships its spans back trace-less, on a track named
    after its pid, for the service to adopt with
    :func:`~repro.obs.spans.reparent_spans`.
    """
    requests, spans_under = task
    if spans_under is None:
        return [runner.execute_request(request).report for request in requests], []
    trace_id, parent_id = spans_under
    base_us = perf_to_epoch_us(time.perf_counter())
    obs = make_observability()
    reports = [runner.execute_request(request, obs=obs).report for request in requests]
    spans = spans_from_tracer(
        obs.tracer,
        trace_id=trace_id,
        parent_id=parent_id,
        base_us=base_us,
        process="serve" if trace_id else f"worker-{os.getpid()}",
    )
    return reports, spans


class SimulationService:
    """Request execution core; the HTTP handler is a thin shell over it."""

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config if config is not None else ServiceConfig()
        self.registry = MetricsRegistry()
        self._metrics_lock = threading.Lock()
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
        # Pre-register every service instrument so concurrent first
        # touches never race on the registry's get-or-create dict.
        self.registry.counter(REQUESTS_METRIC)
        self.registry.counter(SIMULATIONS_METRIC)
        self.registry.counter(REJECTED_METRIC)
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
                self._make_wait_observer(COALESCE_WAIT_METRIC)
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
                self._make_wait_observer(QUEUE_WAIT_METRIC)
                if self.telemetry
                else None
            ),
        )
        # Micro-batching window: off unless a positive window was
        # configured, in which case the batch instruments exist from the
        # first exposition on (pre-registered like everything else).
        self._batcher: Optional[MicroBatcher] = None
        if self.config.batch_window_ms > 0:
            if self.config.run_isolated:
                raise ServiceError(
                    "micro-batching (batch_window_ms > 0) is incompatible "
                    "with run_isolated: isolation enforces each request's "
                    "deadline by killing its child, and a batch would share "
                    "one child, so one deadline would kill every member"
                )
            for name in (
                BATCH_REQUESTS_METRIC,
                BATCH_BATCHES_METRIC,
                BATCH_FUSED_METRIC,
            ):
                self.registry.counter(name)
            self.registry.histogram(BATCH_SIZE_METRIC, buckets=BATCH_SIZE_BUCKETS)
            self._batcher = MicroBatcher(
                window_s=self.config.batch_window_ms / 1000.0,
                max_size=max(1, self.config.batch_max),
                execute=self._execute_batch,
            )
        self._draining = False

    # -- metrics (the registry's instruments are not thread-safe) -------
    def _count(self, name: str, **labels: Any) -> None:
        with self._metrics_lock:
            self.registry.counter(name).inc(**labels)

    def _count_n(self, name: str, n: int) -> None:
        with self._metrics_lock:
            self.registry.counter(name).inc(n)

    def _observe_latency(self, name: str, seconds: float) -> None:
        with self._metrics_lock:
            self.registry.histogram(name).observe(seconds)

    def _observe_value(self, name: str, value: float) -> None:
        with self._metrics_lock:
            self.registry.histogram(name).observe(value)

    def _make_wait_observer(self, name: str):
        return lambda seconds: self._observe_latency(name, seconds)

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
                ctx.outcome = _error_outcome(error)
            elif ctx.outcome is None:
                ctx.outcome = OUTCOME_ERROR
            record = ctx.record(status=status, total_s=total_s)
            if self.telemetry:
                self._observe_latency(TOTAL_METRIC, total_s)
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
    ) -> Dict[str, Any]:
        """Execute (or coalesce, or reject) one validated run request."""
        digest = request.cache_digest()
        if ctx is not None:
            # One canonical string identity everywhere: this same digest
            # names the L2 entry on disk and places the key on the
            # cluster front's hash ring (pinned by a test).
            ctx.cache_key = digest
        if self._draining:
            self._count(REJECTED_METRIC, reason="draining")
            raise ServiceUnavailableError("service is draining; not accepting work")
        self._count(REQUESTS_METRIC, route="run")
        probe_started = time.perf_counter()
        report, tier = runner.get_cached_report(request, with_tier=True)
        if self.store is not None and tier != "l1":
            # The probe reached the disk tier: its latency belongs in
            # the request's trace tree.
            self._span(ctx, "serve.store.get", probe_started, tier=tier or "miss")
        if report is not None:
            if ctx is not None:
                ctx.outcome = OUTCOME_CACHED
            return run_response(request, report)
        wait_started = time.perf_counter()
        report = self._singleflight.do(
            digest,
            lambda: self._lead(request, ctx),
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
        return run_response(request, report)

    def _lead(self, request: RunRequest, ctx: Optional[RequestContext]) -> RunReport:
        """Single-flight leader body: seal a batch and run it.

        Without a window the batch is this leader alone, run at once;
        with one, compatible leaders meet in the micro-batcher first
        (identical requests already share this seat through
        single-flight, so a batch never holds one digest twice).
        """
        if self._batcher is None:
            member = BatchMember(request=request, ctx=ctx)
            self._execute_batch([member], time.perf_counter())
            return member.report
        self._count(BATCH_REQUESTS_METRIC)
        wait_started = time.perf_counter()
        member = self._batcher.submit(
            request, ctx, timeout_s=self.config.request_timeout_s
        )
        if not member.leader:
            # Mirror of the coalesce-wait link: this request rode in a
            # batch another request led.
            self._span(ctx, "serve.batch_wait", wait_started, link=member.link)
        return member.report

    def _execute_batch(self, members: "list[BatchMember]", opened: float) -> None:
        """Run one sealed batch as ONE queue task, on its leader's thread.

        Every member gets the shared queue-wait attribution and, once the
        batch ran, its outcome: ``cached`` when the worker's re-probe
        found its report, else ``simulated`` (``batched`` when >= 2
        requests shared a window).  In window mode the leader's trace
        also carries the ``serve.batch`` span the other members link to.
        """
        task = self._queue.submit(lambda: self._simulate(members))
        try:
            self._queue.wait(task, timeout_s=self.config.request_timeout_s)
        finally:
            for member in members:
                if member.ctx is not None:
                    member.ctx.queue_wait_s = task.queue_wait_s
                    member.ctx.queue_entered = task.submitted_at
        size = len(members)
        simulated = OUTCOME_BATCHED if size > 1 else OUTCOME_SIMULATED
        for member in members:
            if member.ctx is not None:
                member.ctx.outcome = simulated if member.simulated else OUTCOME_CACHED
        if self._batcher is None:
            return
        self._count(BATCH_BATCHES_METRIC)
        if size > 1:
            self._count_n(BATCH_FUSED_METRIC, size)
        self._observe_value(BATCH_SIZE_METRIC, float(size))
        lctx = members[0].ctx
        batch_span_id = self._span(
            lctx,
            "serve.batch",
            opened,
            batch_size=size,
            simulated=sum(member.simulated for member in members),
            window_ms=self.config.batch_window_ms,
        )
        if batch_span_id is not None:
            for member in members:
                member.link = (lctx.trace_id, batch_span_id)

    def _simulate(self, members: "list[BatchMember]") -> None:
        """Worker-side body of one sealed batch; fills every member's report.

        Re-probes each member (a leader that finished since the
        handler's probe served it: not a simulation), simulates the
        misses in order, records ``serve.simulate`` with their phase
        spans beneath it on the leader's trace, and stores them.  With
        ``--isolate`` only the simulate step runs in a child process, so
        a cache hit forks nothing and each report reaches this process's
        tiers once.
        """
        misses = []
        for member in members:
            member.report = runner.get_cached_report(member.request)
            if member.report is None:
                misses.append(member)
        if not misses:
            return
        self._count_n(SIMULATIONS_METRIC, len(misses))
        lctx = members[0].ctx
        traced = self._traced(lctx)
        sim_span_id = new_span_id() if traced else None
        requests = [member.request for member in misses]
        started = time.perf_counter()
        if not self.config.run_isolated:
            reports, spans = _simulate_requests(
                (requests, (lctx.trace_id, sim_span_id) if traced else None)
            )
        else:
            reports, spans = self._run_in_child(
                (requests, ("", None) if traced else None)
            )
            if traced:
                spans = reparent_spans(
                    spans,
                    trace_id=lctx.trace_id,
                    parent_id=sim_span_id,
                    source="isolated worker",
                )
        simulate_s = time.perf_counter() - started
        for member, report in zip(misses, reports):
            member.report = report
            member.simulated = True
            if member.ctx is not None:
                member.ctx.simulate_s = simulate_s
        if traced:
            self._span(
                lctx,
                "serve.simulate",
                started,
                simulate_s,
                span_id=sim_span_id,
                algorithm=requests[0].algorithm,
                mode=requests[0].mode,
                isolated=self.config.run_isolated,
            )
            lctx.spans.extend(spans)
            # Published so coalesced followers can link to this span.
            for request in requests:
                self._leader_spans.put(
                    request.cache_digest(), (lctx.trace_id, sim_span_id)
                )
        if self.telemetry:
            self._observe_latency(SIMULATE_METRIC, simulate_s)
        put_started = time.perf_counter()
        for member in misses:
            runner.put_cached_report(member.request, member.report)
        if self.store is not None:
            self._span(lctx, "serve.store.put", put_started)

    def _run_in_child(self, task: Tuple) -> Tuple[list, list]:
        """:func:`_simulate_requests` in a killable child (hard deadline)."""
        try:
            (outcome,) = run_sweep(
                [task],
                _simulate_requests,
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
        with self._metrics_lock:
            service = self.registry.render_prometheus()
        return service + global_metrics().render_prometheus()

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


#: (exception class -> HTTP status, stable error code); checked in order.
_ERROR_MAP: Tuple[Tuple[type, int, str], ...] = (
    (ProtocolError, 400, "bad-request"),
    (ServiceOverloadError, 429, "overloaded"),
    (ServiceUnavailableError, 503, "draining"),
    (ServiceTimeoutError, 504, "timeout"),
)

#: (exception class -> journal outcome); checked in order.
_OUTCOME_MAP: Tuple[Tuple[type, str], ...] = (
    (ProtocolError, OUTCOME_BAD_REQUEST),
    (ServiceOverloadError, OUTCOME_REJECTED),
    (ServiceUnavailableError, OUTCOME_DRAINING),
    (ServiceTimeoutError, OUTCOME_TIMEOUT),
    (ValueError, OUTCOME_BAD_REQUEST),
)


def _error_outcome(error: BaseException) -> str:
    for cls, outcome in _OUTCOME_MAP:
        if isinstance(error, cls):
            return outcome
    return OUTCOME_ERROR


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

        A body that does not arrive in full (the client reset, hung up,
        or stalled past :data:`READ_TIMEOUT_S`) is a bad request, and the
        connection is closed after it.
        """
        length = int(self.headers.get("Content-Length", "0"))
        if length > MAX_BODY_BYTES:
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
        for cls, status, code in _ERROR_MAP:
            if isinstance(error, cls):
                break
        else:
            status, code = 500, "internal"
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
            response = self.service.handle_run(request, ctx)
        except (ReproError, ValueError) as exc:
            error = exc
            status, body, extra = self._error_response(exc)
        else:
            status, body, extra = 200, encode(response), ()
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
