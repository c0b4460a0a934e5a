"""Tests for the distributed-tracing layer (repro.obs.propagation /
repro.obs.spans) and the ops-console render layer (repro.serve.console).

Everything here is process-local and fast: W3C traceparent parsing,
the tracer's span records, the cross-process re-parenting protocol, the
bounded span store, Chrome-trace stitching, and the pure text frames of
``repro top``.  The end-to-end HTTP paths live in test_serve.py; the
forked-worker paths in test_parallel.py.
"""

import json
import math
import time

import pytest

from repro.errors import ObservabilityError
from repro.obs import Tracer, make_observability
from repro.obs.propagation import (
    FLAG_SAMPLED,
    TraceContext,
    format_traceparent,
    make_context,
    new_span_id,
    new_trace_id,
    parse_traceparent,
)
from repro.obs.spans import (
    SIM_SPAN_CATEGORIES,
    SPAN_SCHEMA_VERSION,
    SpanRecord,
    SpanStore,
    count_sim_phase_spans,
    perf_to_epoch_us,
    reparent_spans,
    sanitize_attributes,
    spans_to_chrome,
)
from repro.serve.console import (
    Snapshot,
    outcome_mix,
    render_frame,
    slowest_traces,
    stage_quantiles,
)

TRACE_ID = "0af7651916cd43dd8448eb211c80319c"
SPAN_ID = "b7ad6b7169203331"
HEADER = f"00-{TRACE_ID}-{SPAN_ID}-01"


# ---------------------------------------------------------------------------
# W3C traceparent propagation
# ---------------------------------------------------------------------------


class TestPropagation:
    def test_parse_well_formed_header(self):
        context = parse_traceparent(HEADER)
        assert context == TraceContext(TRACE_ID, SPAN_ID, FLAG_SAMPLED)
        assert context.sampled

    def test_format_round_trips(self):
        context = make_context()
        assert parse_traceparent(format_traceparent(context)) == context

    def test_parse_is_case_and_whitespace_tolerant(self):
        context = parse_traceparent(f"  {HEADER.upper()}  ")
        assert context is not None
        assert context.trace_id == TRACE_ID

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "not-a-header",
            f"00-{TRACE_ID}-{SPAN_ID}",  # missing flags
            f"00-{'0' * 32}-{SPAN_ID}-01",  # all-zero trace id
            f"00-{TRACE_ID}-{'0' * 16}-01",  # all-zero span id
            f"00-{TRACE_ID[:-1]}-{SPAN_ID}-01",  # short trace id
            f"00-{TRACE_ID}-{SPAN_ID}-1",  # short flags
            f"00-{TRACE_ID}-{SPAN_ID}-01-extra",  # v00 must have 4 parts
            f"ff-{TRACE_ID}-{SPAN_ID}-01",  # reserved version
            f"0g-{TRACE_ID}-{SPAN_ID}-01",  # non-hex version
            f"00-{'g' * 32}-{SPAN_ID}-01",  # non-hex trace id
        ],
    )
    def test_malformed_headers_return_none(self, header):
        assert parse_traceparent(header) is None

    def test_future_versions_with_wellformed_prefix_accepted(self):
        context = parse_traceparent(f"42-{TRACE_ID}-{SPAN_ID}-01-future-field")
        assert context is not None
        assert context.trace_id == TRACE_ID

    def test_fresh_ids_are_wellformed_and_distinct(self):
        trace_ids = {new_trace_id() for _ in range(32)}
        span_ids = {new_span_id() for _ in range(32)}
        assert len(trace_ids) == 32 and len(span_ids) == 32
        assert all(len(t) == 32 and int(t, 16) != 0 for t in trace_ids)
        assert all(len(s) == 16 and int(s, 16) != 0 for s in span_ids)

    def test_invalid_context_fields_rejected(self):
        with pytest.raises(ValueError):
            TraceContext("short", SPAN_ID)
        with pytest.raises(ValueError):
            TraceContext(TRACE_ID, "0" * 16)
        with pytest.raises(ValueError):
            TraceContext(TRACE_ID, SPAN_ID, flags=300)

    def test_child_keeps_trace_and_flags(self):
        parent = TraceContext(TRACE_ID, SPAN_ID, flags=0x01)
        child = parent.child()
        assert child.trace_id == parent.trace_id
        assert child.span_id != parent.span_id
        assert child.flags == parent.flags


# ---------------------------------------------------------------------------
# Span records
# ---------------------------------------------------------------------------


def _span(**overrides):
    base = dict(
        trace_id=TRACE_ID,
        span_id=new_span_id(),
        name="test.span",
        start_us=1000.0,
        duration_us=50.0,
    )
    base.update(overrides)
    return SpanRecord(**base)


class TestSpanRecord:
    def test_dict_round_trip(self):
        record = _span(
            parent_id=SPAN_ID,
            category="scu",
            process="worker-7",
            attributes={"k": 1},
            links=[{"trace_id": TRACE_ID, "span_id": SPAN_ID}],
        )
        payload = record.to_dict()
        assert payload["schema_version"] == SPAN_SCHEMA_VERSION
        restored = SpanRecord.from_dict(json.loads(json.dumps(payload)))
        assert restored == record

    def test_unsupported_schema_version_rejected(self):
        payload = _span().to_dict()
        payload["schema_version"] = SPAN_SCHEMA_VERSION + 1
        with pytest.raises(ObservabilityError):
            SpanRecord.from_dict(payload)

    def test_missing_fields_rejected(self):
        payload = _span().to_dict()
        del payload["start_us"]
        with pytest.raises(ObservabilityError):
            SpanRecord.from_dict(payload)

    def test_non_finite_timestamps_rejected(self):
        payload = _span().to_dict()
        payload["duration_us"] = float("nan")
        with pytest.raises(ObservabilityError):
            SpanRecord.from_dict(payload)

    def test_sanitize_attributes_coerces_foreign_objects(self):
        class Mode:
            def __str__(self):
                return "scu-enhanced"

        cleaned = sanitize_attributes(
            {
                "mode": Mode(),
                "nested": {"depth": Mode(), "n": 3},
                "seq": (1, Mode()),
                "inf": math.inf,
                "plain": "ok",
            }
        )
        json.dumps(cleaned)  # must be serializable as-is
        assert cleaned["mode"] == "scu-enhanced"
        assert cleaned["nested"]["depth"] == "scu-enhanced"
        assert cleaned["seq"] == [1, "scu-enhanced"]
        assert cleaned["inf"] == "inf"
        assert cleaned["plain"] == "ok"


class TestSpansFromTracer:
    def test_nesting_becomes_parent_child_tree(self):
        tracer = Tracer(process="serve")
        before_us = perf_to_epoch_us(time.perf_counter())
        with tracer.span("outer", "algorithm"):
            with tracer.span("inner", "gpu-kernel"):
                pass
            tracer.instant("marker", "sim")
        spans = reparent_spans(tracer.spans, trace_id=TRACE_ID, parent_id=SPAN_ID)
        by_name = {span.name: span for span in spans}
        assert by_name["outer"].parent_id == SPAN_ID
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["marker"].parent_id == by_name["outer"].span_id
        assert by_name["marker"].duration_us == 0.0
        assert all(span.trace_id == TRACE_ID for span in spans)
        assert all(span.process == "serve" for span in spans)
        # absolute stamps from the process's one clock anchor
        assert all(span.start_us >= before_us for span in spans)
        assert by_name["outer"].end_us >= by_name["inner"].end_us

    def test_counters_are_not_spans_and_open_spans_have_no_duration(self):
        tracer = Tracer()
        tracer.counter("bytes", value=10)
        tracer.begin("open", "sim")
        tracer.instant("tick", "sim")
        assert [span.name for span in tracer.spans] == ["open", "tick"]
        open_span, tick = tracer.spans
        assert open_span.duration_us == 0.0  # never ended
        assert tick.parent_id == open_span.span_id
        assert [name for name, _, _ in tracer.counters] == ["bytes"]

    def test_sim_phase_counting(self):
        spans = [_span(category=c) for c in SIM_SPAN_CATEGORIES]
        spans.append(_span(category="serve"))
        assert count_sim_phase_spans(spans) == len(SIM_SPAN_CATEGORIES)


class TestReparenting:
    def _worker_batch(self):
        """Two-span batch the way a forked worker ships it: trace-less."""
        root = _span(trace_id="", parent_id=None, name="root")
        child = _span(trace_id="", parent_id=root.span_id, name="child")
        return [root.to_dict(), child.to_dict()]

    def test_roots_adopted_and_internal_edges_preserved(self):
        batch = self._worker_batch()
        adopted = reparent_spans(batch, trace_id=TRACE_ID, parent_id=SPAN_ID)
        by_name = {span.name: span for span in adopted}
        assert by_name["root"].parent_id == SPAN_ID
        assert by_name["child"].parent_id == by_name["root"].span_id
        assert all(span.trace_id == TRACE_ID for span in adopted)

    def test_accepts_records_and_does_not_mutate_inputs(self):
        original = _span(trace_id="", parent_id=None)
        (adopted,) = reparent_spans(
            [original], trace_id=TRACE_ID, parent_id=SPAN_ID
        )
        assert adopted.trace_id == TRACE_ID
        assert original.trace_id == ""  # input untouched
        assert original.parent_id is None

    def test_malformed_worker_payload_rejected_with_source(self):
        with pytest.raises(ObservabilityError, match="cell bfs"):
            reparent_spans(
                [{"bogus": True}],
                trace_id=TRACE_ID,
                parent_id=None,
                source="cell bfs",
            )


class TestSpanStore:
    def test_traces_evict_in_insertion_order(self):
        store = SpanStore(max_traces=2)
        for i in range(3):
            store.add([_span(trace_id=f"{i:032x}" if i else "f" * 32)])
        assert len(store) == 2
        assert store.get("f" * 32) is None  # oldest evicted

    def test_per_trace_span_cap_counts_drops(self):
        store = SpanStore(max_traces=4, max_spans_per_trace=2)
        store.add([_span() for _ in range(5)])
        assert len(store.get(TRACE_ID)) == 2
        assert store.dropped_spans == 3

    def test_idless_spans_are_dropped_not_stored(self):
        store = SpanStore()
        store.add([_span(trace_id="")])
        assert len(store) == 0
        assert store.dropped_spans == 1

    def test_get_returns_sorted_copies(self):
        store = SpanStore()
        late = _span(start_us=2000.0)
        early = _span(start_us=1000.0)
        store.add([late, early])
        spans = store.get(TRACE_ID)
        assert [span.start_us for span in spans] == [1000.0, 2000.0]
        assert store.trace_ids() == [(TRACE_ID, 2)]

    def test_bounds_validated(self):
        with pytest.raises(ObservabilityError):
            SpanStore(max_traces=0)
        with pytest.raises(ObservabilityError):
            SpanStore(max_spans_per_trace=0)


class TestChromeStitching:
    def test_processes_get_distinct_pids_with_metadata(self):
        spans = [
            _span(process="client", start_us=100.0),
            _span(process="serve", start_us=150.0),
            _span(process="serve", start_us=175.0),
        ]
        doc = spans_to_chrome(spans)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {e["args"]["name"] for e in meta} == {"client", "serve"}
        assert len({e["pid"] for e in meta}) == 2
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == 3
        # timestamps re-based to the earliest span
        assert min(e["ts"] for e in slices) == 0.0
        assert doc["otherData"]["trace_id"] == TRACE_ID
        assert doc["otherData"]["span_schema_version"] == SPAN_SCHEMA_VERSION
        json.dumps(doc)  # writable as-is

    def test_links_and_identity_ride_in_args(self):
        link = {"trace_id": "a" * 32, "span_id": "b" * 16}
        span = _span(parent_id=SPAN_ID, links=[link])
        doc = spans_to_chrome([span])
        (event,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert event["args"]["span_id"] == span.span_id
        assert event["args"]["parent_id"] == SPAN_ID
        assert event["args"]["links"] == [link]

    def test_empty_trace_renders(self):
        doc = spans_to_chrome([])
        assert doc["traceEvents"] == []
        assert doc["otherData"]["trace_id"] is None


class TestObservedRunProducesSimSpans:
    def test_real_run_yields_phase_spans(self):
        from repro.algorithms.runner import execute_request
        from repro.request import RunRequest

        obs = make_observability()
        request = RunRequest.make("bfs", "human", "TX1", "scu-enhanced")
        execute_request(request, obs=obs)
        spans = obs.tracer.spans
        assert count_sim_phase_spans(spans) >= 1
        json.dumps([span.to_dict() for span in spans])  # all serializable


# ---------------------------------------------------------------------------
# repro top render layer
# ---------------------------------------------------------------------------


def _journal_record(request_id, outcome, total_ms, trace_id=None):
    return {
        "request_id": request_id,
        "trace_id": trace_id,
        "outcome": outcome,
        "total_ms": total_ms,
    }


def _snapshot(taken_at, total, journal=(), buckets=None):
    return Snapshot(
        taken_at=taken_at,
        requests_total=total,
        buckets=buckets if buckets is not None else {},
        journal=list(journal),
    )


class TestConsole:
    def test_outcome_mix_counts_and_orders(self):
        journal = [
            _journal_record("r1", "simulated", 5.0),
            _journal_record("r2", "cached", 1.0),
            _journal_record("r3", "cached", 1.0),
        ]
        assert outcome_mix(journal) == [("cached", 2), ("simulated", 1)]

    def test_slowest_traces_orders_and_bounds(self):
        journal = [
            _journal_record(f"r{i}", "simulated", float(i)) for i in range(9)
        ]
        journal.append(_journal_record("untimed", "rejected-429", None))
        rows = slowest_traces(journal)
        assert [r["request_id"] for r in rows] == ["r8", "r7", "r6", "r5", "r4"]

    def test_stage_quantiles_window_between_snapshots(self):
        from repro.serve.console import STAGE_HISTOGRAMS

        base = STAGE_HISTOGRAMS[0][0]
        before = _snapshot(0.0, 0, buckets={base: [(0.1, 10.0), (math.inf, 10.0)]})
        after = _snapshot(
            2.0, 0, buckets={base: [(0.1, 10.0), (math.inf, 14.0)]}
        )
        rows = stage_quantiles(after, before)
        label, values, windowed = rows[0]
        assert windowed  # interval had 4 observations, all above 0.1s
        assert values[0] >= 100.0  # p50 in ms, at or above the 0.1s bound

    def test_first_frame_renders_cumulative(self):
        journal = [
            _journal_record("r1", "simulated", 7.5, trace_id="c" * 32)
        ]
        frame = render_frame(
            _snapshot(1.0, 3, journal=journal), None, url="http://x"
        )
        assert "3 requests (cum" in frame
        assert "simulated" in frame
        assert "c" * 32 in frame

    def test_second_frame_shows_throughput_rate(self):
        first = _snapshot(0.0, 10)
        second = _snapshot(2.0, 30)
        frame = render_frame(second, first, url="http://x")
        assert "10.0 req/s" in frame

    def test_poll_failure_renders_notice(self):
        snap = Snapshot(
            taken_at=0.0, requests_total=0.0, buckets={}, error="refused"
        )
        frame = render_frame(snap, None, url="http://x")
        assert "POLL FAILED: refused" in frame
