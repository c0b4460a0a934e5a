"""Tests for the observability layer (tracing, metrics, profiles).

The load-bearing guarantee is the A/B determinism test: attaching a
live tracer + metrics registry to a run must leave every simulated
number bit-identical, because instrumentation only *reads*.
"""

import json
import math
import os
import sys
import threading

import numpy as np
import pytest

from repro.algorithms.common import SystemMode
from repro.algorithms.runner import (
    RUN_CACHE_SIZE,
    _RUN_CACHE,
    cached_run,
    clear_run_cache,
    run_algorithm,
)
from repro.errors import ObservabilityError
from repro.graph.datasets import load_dataset
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_METRICS,
    NULL_OBS,
    NULL_TRACER,
    LruCache,
    MetricsRegistry,
    NullMetrics,
    Observability,
    SpanRecord,
    Tracer,
    global_metrics,
    make_observability,
    merge_flat_snapshots,
    quantile_from_buckets,
    sim_profile,
    wall_profile,
)
from repro.phases import RunReport
from repro.request import RunRequest
from repro.serve.store import STORE_MISSES_METRIC, ResultStore


class FakeClock:
    """Deterministic ns clock: each read advances by one microsecond."""

    def __init__(self):
        self.ns = 0

    def __call__(self) -> int:
        self.ns += 1_000
        return self.ns


class TestTracer:
    def test_span_nesting_and_ordering(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            tracer.instant("marker")
        outer, inner, marker = tracer.spans  # in the order they began
        assert [s.name for s in tracer.spans] == ["outer", "inner", "marker"]
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert marker.parent_id == outer.span_id
        assert all(s.trace_id == "" for s in tracer.spans)  # trace-less
        # fake clock => one microsecond per reading: starts strictly
        # increase, the instant has no duration, the outer span covers
        # the four readings after its start
        starts = [s.start_us for s in tracer.spans]
        assert starts == sorted(starts) and len(set(starts)) == len(starts)
        assert (outer.duration_us, inner.duration_us, marker.duration_us) == (
            4.0, 1.0, 0.0
        )
        assert outer.start_us <= inner.start_us and inner.end_us <= outer.end_us

    def test_end_without_begin_raises(self):
        with pytest.raises(ObservabilityError):
            Tracer(clock=FakeClock()).end()

    def test_counter_requires_values(self):
        with pytest.raises(ObservabilityError):
            Tracer(clock=FakeClock()).counter("frontier.size")

    def test_annotate_updates_the_record(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("phase", kernel="k") as span:
            span.annotate(sim_time_s=1.5)
        (record,) = tracer.spans
        assert record is span
        assert record.attributes == {"kernel": "k", "sim_time_s": 1.5}

    def test_chrome_trace_schema(self, tmp_path):
        tracer = Tracer(clock=FakeClock(), process="sim")
        tracer.counter("frontier.size", nodes=1)
        with tracer.span("a", "cat", depth=0):
            tracer.counter("frontier.size", nodes=7)
        path = tmp_path / "trace.json"
        tracer.write_chrome(str(path))
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert {e["ph"] for e in events} == {"M", "X", "C"}
        (meta,) = [e for e in events if e["ph"] == "M"]
        assert meta["args"] == {"name": "sim"}
        (span,) = [e for e in events if e["ph"] == "X"]
        early, sample = [e for e in events if e["ph"] == "C"]
        assert {"name", "ts", "dur", "pid", "tid"} <= set(span)
        assert span["args"]["depth"] == 0
        # one track, one time origin: the sample sits inside the span,
        # and the one taken before the first span is drawn at its start
        assert early["pid"] == sample["pid"] == span["pid"] == meta["pid"]
        assert early["ts"] == span["ts"] == 0.0
        assert span["ts"] < sample["ts"] < span["ts"] + span["dur"]
        assert (early["args"], sample["args"]) == ({"nodes": 1.0}, {"nodes": 7.0})

    def test_jsonl_round_trips(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a"):
            tracer.counter("c", v=1)
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(str(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [SpanRecord.from_dict(line) for line in lines] == tracer.spans

    def test_null_tracer_records_nothing(self):
        tracer = NULL_OBS.tracer
        with tracer.span("a") as span:
            span.annotate(x=1)
        tracer.instant("b")
        tracer.counter("c", v=1)
        assert tracer.spans == [] and tracer.counters == []
        assert not tracer.enabled


class TestMetrics:
    def test_counter_label_aggregation(self):
        registry = MetricsRegistry()
        counter = registry.counter("scu.op.count")
        counter.inc(op="filter")
        counter.inc(2.0, op="filter")
        counter.inc(op="compact")
        assert counter.value(op="filter") == 3.0
        assert counter.value(op="compact") == 1.0
        assert counter.value(op="missing") == 0.0
        assert counter.total() == 4.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ObservabilityError):
            MetricsRegistry().counter("x").inc(-1.0)

    def test_gauge_last_write_wins(self):
        gauge = MetricsRegistry().gauge("mem.l2.capacity")
        gauge.set(10, device="TX1")
        gauge.set(20, device="TX1")
        assert gauge.value(device="TX1") == 20.0
        with pytest.raises(ObservabilityError):
            gauge.value(device="GTX980")

    def test_histogram_scalar_and_vectorized_agree(self):
        registry = MetricsRegistry()
        h1 = registry.histogram("a")
        h2 = registry.histogram("b")
        values = [3.0, 1.0, 4.0, 1.0, 5.0]
        for v in values:
            h1.observe(v, alg="bfs")
        h2.observe_many(np.array(values), alg="bfs")
        assert h1.stats(alg="bfs") == h2.stats(alg="bfs")
        stats = h1.stats(alg="bfs")
        assert stats["count"] == 5 and stats["min"] == 1.0 and stats["max"] == 5.0
        assert stats["mean"] == pytest.approx(2.8)

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ObservabilityError):
            registry.histogram("x")

    def test_snapshot_and_render(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(3, cache="l2")
        snap = registry.snapshot()
        assert snap["hits"]["kind"] == "counter"
        assert snap["hits"]["series"] == [{"labels": {"cache": "l2"}, "value": 3.0}]
        assert "hits{cache=l2} 3" in registry.render()

    def test_null_metrics_retains_nothing(self):
        registry = NULL_OBS.metrics
        registry.counter("x").inc(5)
        registry.histogram("y").observe(1.0)
        assert registry.names() == [] and not registry.enabled


class TestFlatSnapshot:
    """The label-flattened JSON form bench artifacts embed."""

    @staticmethod
    def populate(registry, order):
        """Record the same data in a caller-chosen order."""
        for step in order:
            if step == "counter-b":
                registry.counter("scu.ops").inc(2, op="group")
            elif step == "counter-a":
                registry.counter("scu.ops").inc(3, op="filter")
            elif step == "gauge":
                registry.gauge("mem.l2.rate").set(0.5, gpu="TX1")
            elif step == "hist":
                registry.histogram("frontier").observe_many([1.0, 3.0], alg="bfs")

    def test_entries_are_label_flattened(self):
        registry = MetricsRegistry()
        self.populate(registry, ("counter-a", "gauge", "hist"))
        snap = registry.flat_snapshot()
        assert {e["metric"] for e in snap} == {"scu.ops", "mem.l2.rate", "frontier"}
        counter = next(e for e in snap if e["metric"] == "scu.ops")
        assert counter == {
            "metric": "scu.ops",
            "kind": "counter",
            "labels": "{op=filter}",
            "value": 3.0,
        }
        hist = next(e for e in snap if e["metric"] == "frontier")
        assert hist["kind"] == "histogram"
        assert hist["count"] == 2 and hist["mean"] == pytest.approx(2.0)

    def test_ordering_is_insertion_independent(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        self.populate(a, ("counter-a", "counter-b", "gauge", "hist"))
        self.populate(b, ("hist", "gauge", "counter-b", "counter-a"))
        assert a.flat_snapshot() == b.flat_snapshot()

    def test_sorted_by_metric_then_labels(self):
        registry = MetricsRegistry()
        self.populate(registry, ("counter-b", "counter-a"))
        registry.counter("a.first").inc()
        snap = registry.flat_snapshot()
        assert [(e["metric"], e["labels"]) for e in snap] == [
            ("a.first", ""),
            ("scu.ops", "{op=filter}"),
            ("scu.ops", "{op=group}"),
        ]

    def test_json_serializable(self):
        registry = MetricsRegistry()
        self.populate(registry, ("counter-a", "hist"))
        json.dumps(registry.flat_snapshot(), allow_nan=False)


class TestProfiles:
    def test_wall_profile_self_time(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.instant("marker")  # no wall time, so no row
        rows = {r["name"]: r for r in wall_profile(tracer.spans)}
        assert set(rows) == {"outer", "inner"}
        # outer's self time excludes inner's whole duration
        assert rows["outer"]["self_us"] == pytest.approx(
            rows["outer"]["total_us"] - rows["inner"]["total_us"]
        )
        assert rows["outer"]["count"] == 1

    def test_sim_profile_attribution_sums_to_total(self):
        graph = load_dataset("human", seed=42)
        report = run_algorithm(
            "bfs", graph, "TX1", SystemMode.SCU_ENHANCED
        ).report
        rows = sim_profile(report)
        assert sum(r["time_s"] for r in rows) == pytest.approx(report.time_s())
        assert sum(r["count"] for r in rows) == len(report.phases)
        assert rows == sorted(rows, key=lambda r: r["time_s"], reverse=True)


#: The three ways to observe a run: both planes, or either one alone.
BUNDLES = {
    "full": make_observability,
    "tracer-only": lambda: Observability(tracer=Tracer(), metrics=NULL_METRICS),
    "metrics-only": lambda: Observability(
        tracer=NULL_TRACER, metrics=MetricsRegistry()
    ),
}

ALGORITHMS = ("bfs", "sssp", "pagerank")


def observed_run(algorithm, mode, obs):
    """One run of ``algorithm`` on ``human`` (TX1) under ``obs``."""
    graph = load_dataset("human", seed=42)
    kwargs = {} if algorithm == "pagerank" else {"source": 0}
    return run_algorithm(algorithm, graph, "TX1", mode, obs=obs, **kwargs)


class TestDeterminism:
    """Tracing must not change a single simulated number."""

    @pytest.mark.parametrize(
        "algorithm, bundle",
        [
            pytest.param(
                algorithm,
                bundle,
                id=algorithm if bundle == "full" else f"{algorithm}-{bundle}",
            )
            for bundle in BUNDLES
            for algorithm in ALGORITHMS
        ],
    )
    def test_observed_run_is_bit_identical(self, algorithm, bundle):
        outcome = observed_run(algorithm, SystemMode.SCU_ENHANCED, NULL_OBS)
        plain = outcome.result
        plain_report = outcome.report
        obs = BUNDLES[bundle]()
        outcome = observed_run(algorithm, SystemMode.SCU_ENHANCED, obs)
        traced = outcome.result
        traced_report = outcome.report
        # observation actually happened, on each plane the bundle has...
        assert bool(obs.tracer.spans) == obs.tracer.enabled
        assert bool(obs.metrics.names()) == obs.metrics.enabled
        # ...and changed nothing
        assert np.array_equal(plain, traced)
        assert traced_report.time_s() == plain_report.time_s()
        assert traced_report.total_energy_j() == plain_report.total_energy_j()
        assert traced_report.dram_bytes() == plain_report.dram_bytes()
        assert len(traced_report.phases) == len(plain_report.phases)
        for a, b in zip(plain_report.phases, traced_report.phases):
            assert a.name == b.name
            assert a.time_s == b.time_s
            assert a.dynamic_energy_j == b.dynamic_energy_j
            assert a.memory.dram_bytes == b.memory.dram_bytes


def span_content(spans):
    """Each span's name, category, parent's name and attributes, in order."""
    names = {span.span_id: span.name for span in spans}
    return [
        (span.name, span.category, names.get(span.parent_id), span.attributes)
        for span in spans
    ]


PLANE_CASES = pytest.mark.parametrize(
    "algorithm, mode",
    [
        (algorithm, mode)
        for algorithm in ALGORITHMS
        for mode in (SystemMode.SCU_ENHANCED, SystemMode.IRU)
    ],
)


class TestPlanesApart:
    """Each instrumentation site feeds one plane and asks only that one."""

    @PLANE_CASES
    def test_metrics_only_run_records_the_full_metrics(self, algorithm, mode):
        full = BUNDLES["full"]()
        observed_run(algorithm, mode, full)
        alone = BUNDLES["metrics-only"]()
        observed_run(algorithm, mode, alone)
        assert alone.metrics.flat_snapshot() == full.metrics.flat_snapshot()

    @PLANE_CASES
    def test_tracer_only_run_records_the_full_spans(self, algorithm, mode):
        full = BUNDLES["full"]()
        observed_run(algorithm, mode, full)
        alone = BUNDLES["tracer-only"]()
        observed_run(algorithm, mode, alone)
        assert span_content(alone.tracer.spans) == span_content(full.tracer.spans)
        assert alone.tracer.counters and [
            (name, values) for name, _, values in alone.tracer.counters
        ] == [(name, values) for name, _, values in full.tracer.counters]

    @PLANE_CASES
    def test_tracer_only_run_builds_no_metric_updates(
        self, algorithm, mode, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(
            NullMetrics, "record", lambda self, updates: calls.append(updates)
        )
        obs = BUNDLES["tracer-only"]()
        observed_run(algorithm, mode, obs)
        assert obs.tracer.spans
        assert calls == []


class TestLruCache:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ObservabilityError, match="capacity"):
            LruCache(0)

    def test_get_put_and_bound(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        assert len(cache) == 2
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert cache.get("c") == 3

    def test_get_refreshes_recency(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # now "b" is LRU
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_counters_report_to_registry(self):
        registry = MetricsRegistry()
        cache = LruCache(1, metrics_prefix="test.cache", registry=registry)
        cache.get("missing")
        cache.put("a", 1)
        cache.get("a")
        cache.put("b", 2)  # evicts "a"
        assert registry.counter("test.cache.misses").total() == 1
        assert registry.counter("test.cache.hits").total() == 1
        assert registry.counter("test.cache.evictions").total() == 1

    def test_contains_is_passive(self):
        registry = MetricsRegistry()
        cache = LruCache(4, metrics_prefix="test.cache", registry=registry)
        cache.put("a", 1)
        assert "a" in cache and "b" not in cache
        assert registry.counter("test.cache.hits").total() == 0
        assert registry.counter("test.cache.misses").total() == 0

    def test_clear(self):
        cache = LruCache(4)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0 and "a" not in cache

    def test_concurrent_hammer_stays_consistent(self):
        """Regression: the cache backs the shared run cache and the
        serve daemon's leader-span cache under ThreadingHTTPServer; an
        unlocked OrderedDict corrupts under concurrent move_to_end /
        popitem.  Hammer it from many threads and require no exceptions
        and an in-bound final state."""
        import threading as _threading

        cache = LruCache(8, metrics_prefix="hammer", registry=MetricsRegistry())
        errors = []
        start = _threading.Barrier(8)

        def worker(tid):
            try:
                start.wait(10.0)
                for i in range(2000):
                    key = (tid * 7 + i) % 24
                    if i % 3 == 0:
                        cache.put(key, (tid, i))
                    elif i % 3 == 1:
                        cache.get(key)
                    else:
                        key in cache  # noqa: B015 — passive probe
            except Exception as error:  # pragma: no cover - the regression
                errors.append(error)

        threads = [
            _threading.Thread(target=worker, args=(t,)) for t in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert errors == []
        assert len(cache) <= 8
        # every surviving entry is readable
        for key in range(24):
            cache.get(key)

    def test_concurrent_counts_are_exact(self):
        """Hits, misses and evictions counted from many threads at once
        all land: the registry's counters are atomic."""
        registry = MetricsRegistry()
        hot = LruCache(1, metrics_prefix="hot", registry=registry)
        hot.put("key", 1)
        churn = LruCache(1, metrics_prefix="churn", registry=registry)
        rounds = 500

        def work(tid):
            for i in range(rounds):
                hot.get("key")
                hot.get("absent")
                churn.put((tid, i), i)

        total = hammer(work) * rounds
        assert {
            name: registry.counter(name).total()
            for name in ("hot.hits", "hot.misses", "churn.evictions")
        } == {"hot.hits": total, "hot.misses": total, "churn.evictions": total - 1}


def hammer(work):
    """Run ``work(tid)`` on more threads than cores, switching threads as
    often as the interpreter allows; returns the thread count.

    A read-modify-write that is not atomic loses updates here."""
    workers = max(8, (os.cpu_count() or 1) + 1)
    threads = [threading.Thread(target=work, args=(tid,)) for tid in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return workers


class TestMetricsUnderThreads:
    """One registry, many threads: every update lands."""

    def test_bare_instruments_count_exact_totals(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        histogram = registry.histogram("h", buckets=(1.0, 2.0))
        gauge = registry.gauge("g")
        held = (("counter", "c", 1.0, {}), ("histogram", "h", 3.0, {}))
        rounds = 1_500

        def work(tid):
            for i in range(rounds):
                counter.inc()
                counter.inc(2, lane=tid % 2)
                histogram.observe(1.0)
                histogram.observe_many([2.0, 3.0])
                registry.record(held)
                gauge.set(i, thread=tid)

        total = hammer(work) * rounds
        assert counter.value() == 2 * total
        assert counter.total() == 4 * total
        assert histogram.stats()["count"] == 4 * total
        assert histogram.stats()["sum"] == 9.0 * total
        (series,) = histogram.snapshot()
        assert series["buckets"] == [["1", total], ["2", 2 * total], ["+Inf", 4 * total]]
        assert {s["value"] for s in gauge.snapshot()} == {rounds - 1.0}

    def test_result_store_counts_every_miss(self, tmp_path):
        registry = MetricsRegistry()
        store = ResultStore(tmp_path, registry=registry)
        absent = RunRequest.make("bfs", "human", "TX1", SystemMode.GPU)
        rounds = 1_000

        def work(tid):
            for _ in range(rounds):
                assert store.get(absent) is None

        total = hammer(work) * rounds
        assert registry.counter(STORE_MISSES_METRIC).total() == total


class TestMergeFlatSnapshots:
    def test_counters_sum_gauges_take_last(self):
        a = [
            {"metric": "c", "kind": "counter", "labels": "", "value": 2.0},
            {"metric": "g", "kind": "gauge", "labels": "", "value": 1.0},
        ]
        b = [
            {"metric": "c", "kind": "counter", "labels": "", "value": 3.0},
            {"metric": "g", "kind": "gauge", "labels": "", "value": 7.0},
        ]
        merged = {(e["metric"], e["kind"]): e for e in merge_flat_snapshots([a, b])}
        assert merged[("c", "counter")]["value"] == 5.0
        assert merged[("g", "gauge")]["value"] == 7.0

    def test_histograms_pool(self):
        a = [{
            "metric": "h", "kind": "histogram", "labels": "",
            "count": 2, "sum": 4.0, "min": 1.0, "max": 3.0, "mean": 2.0,
        }]
        b = [{
            "metric": "h", "kind": "histogram", "labels": "",
            "count": 1, "sum": 9.0, "min": 9.0, "max": 9.0, "mean": 9.0,
        }]
        (merged,) = merge_flat_snapshots([a, b])
        assert merged["count"] == 3
        assert merged["sum"] == 13.0
        assert merged["min"] == 1.0
        assert merged["max"] == 9.0
        assert merged["mean"] == pytest.approx(13.0 / 3)

    def test_distinct_labels_stay_separate(self):
        a = [{"metric": "c", "kind": "counter", "labels": "x=1", "value": 1.0}]
        b = [{"metric": "c", "kind": "counter", "labels": "x=2", "value": 1.0}]
        assert len(merge_flat_snapshots([a, b])) == 2

    def test_output_is_sorted_and_deterministic(self):
        a = [{"metric": "z", "kind": "counter", "labels": "", "value": 1.0}]
        b = [{"metric": "a", "kind": "counter", "labels": "", "value": 1.0}]
        assert merge_flat_snapshots([a, b]) == merge_flat_snapshots([b, a])
        metrics = [e["metric"] for e in merge_flat_snapshots([a, b])]
        assert metrics == sorted(metrics)


class TestRunCacheLru:
    def test_cache_hit_miss_metrics_and_bound(self):
        clear_run_cache()
        hits = global_metrics().counter("runner.cache.hits")
        misses = global_metrics().counter("runner.cache.misses")
        h0, m0 = hits.total(), misses.total()
        first = cached_run("bfs", "human", "TX1", SystemMode.GPU)
        assert misses.total() == m0 + 1
        again = cached_run("bfs", "human", "TX1", SystemMode.GPU)
        assert again is first
        assert hits.total() == h0 + 1

    def test_cache_evicts_oldest_beyond_bound(self):
        clear_run_cache()
        # fill past the bound with fake entries shaped like real keys
        # (RunRequest.cache_digest hex strings)
        for i in range(RUN_CACHE_SIZE):
            _RUN_CACHE[f"{i:064x}"] = object()
        cached_run("bfs", "human", "TX1", SystemMode.GPU)
        assert len(_RUN_CACHE) == RUN_CACHE_SIZE
        # the oldest fake entry was evicted, the real run is resident
        assert f"{0:064x}" not in _RUN_CACHE
        real_key = RunRequest.make("bfs", "human", "TX1", SystemMode.GPU).cache_digest()
        assert real_key in _RUN_CACHE
        clear_run_cache()


class TestCompactionFractionNan:
    def test_empty_report_yields_nan(self):
        report = RunReport(algorithm="bfs", system="gpu", dataset="none")
        assert math.isnan(report.compaction_time_fraction())

    def test_injection_through_build_system(self):
        obs = Observability()
        graph = load_dataset("human", seed=42)
        system = run_algorithm(
            "bfs", graph, "TX1", SystemMode.SCU_ENHANCED, obs=obs
        ).system
        # every layer shares the injected bundle
        assert system.obs is obs
        assert system.gpu.obs is obs
        assert system.gpu.hierarchy.obs is obs
        assert system.scu.obs is obs


class TestBucketedHistograms:
    def test_bucket_counts_are_le_inclusive(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.1, 0.5, 1.0, 5.0, 50.0):
            h.observe(v)
        snap = h.snapshot()[0]
        # cumulative pairs: le=0.1 catches 0.05 and 0.1 (le-inclusive)
        assert snap["buckets"] == [
            ["0.1", 2],
            ["1", 4],
            ["10", 5],
            ["+Inf", 6],
        ]
        assert snap["count"] == 6

    def test_observe_and_observe_many_fill_identical_buckets(self):
        registry = MetricsRegistry()
        values = [0.0004, 0.0005, 0.003, 0.2, 7.0, 100.0]
        a = registry.histogram("a", buckets=DEFAULT_LATENCY_BUCKETS)
        b = registry.histogram("b", buckets=DEFAULT_LATENCY_BUCKETS)
        for v in values:
            a.observe(v)
        b.observe_many(np.array(values))
        assert a.snapshot()[0]["buckets"] == b.snapshot()[0]["buckets"]

    def test_quantile_interpolates_and_clamps(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", buckets=(1.0, 2.0, 4.0))
        h.observe_many(np.linspace(0.1, 3.9, 100))
        # quantiles are monotone and never leave the observed range
        q50 = h.quantile(0.5)
        q95 = h.quantile(0.95)
        assert 0.1 <= q50 <= q95 <= 3.9
        assert h.quantile(0.0) == pytest.approx(0.1)
        assert h.quantile(1.0) == pytest.approx(3.9)

    def test_quantile_without_buckets_raises(self):
        registry = MetricsRegistry()
        h = registry.histogram("plain")
        h.observe(1.0)
        with pytest.raises(ObservabilityError):
            h.quantile(0.5)

    def test_bucket_mismatch_on_reregistration_raises(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(1.0, 2.0))
        registry.histogram("lat")  # no buckets requested: fine
        registry.histogram("lat", buckets=(1.0, 2.0))  # same: fine
        with pytest.raises(ObservabilityError):
            registry.histogram("lat", buckets=(1.0, 3.0))

    def test_quantile_from_buckets_linear_case(self):
        # 100 observations uniform in one bucket [0, 10]
        cumulative = [(10.0, 100.0), (math.inf, 100.0)]
        assert quantile_from_buckets(cumulative, 0.5) == pytest.approx(5.0)
        assert quantile_from_buckets(cumulative, 0.99) == pytest.approx(9.9)
        assert quantile_from_buckets([], 0.5) == 0.0

    def test_quantile_from_buckets_empty_histogram(self):
        # No buckets at all, and buckets that never saw an observation,
        # both answer 0.0 rather than raising or returning NaN.
        assert quantile_from_buckets([], 0.99) == 0.0
        assert quantile_from_buckets([(10.0, 0.0), (math.inf, 0.0)], 0.5) == 0.0

    def test_quantile_from_buckets_all_in_inf_bucket(self):
        # Every observation above the largest finite bound: without an
        # observed max the estimate collapses to the last finite bound
        # (never a fabricated +Inf); ``hi`` re-opens interpolation.
        everything_above = [(10.0, 0.0), (math.inf, 5.0)]
        assert quantile_from_buckets(everything_above, 0.9) == pytest.approx(10.0)
        assert quantile_from_buckets(
            everything_above, 0.9, hi=20.0
        ) == pytest.approx(19.0)
        # Degenerate single +Inf bucket: no finite bound to fall back on.
        assert quantile_from_buckets([(math.inf, 5.0)], 0.5) == 0.0
        assert quantile_from_buckets(
            [(math.inf, 5.0)], 0.5, hi=3.0
        ) == pytest.approx(1.5)

    def test_quantile_from_buckets_single_observation(self):
        one = [(1.0, 1.0), (math.inf, 1.0)]
        # Any quantile interpolates inside the one occupied bucket ...
        assert quantile_from_buckets(one, 0.5) == pytest.approx(0.5)
        assert quantile_from_buckets(one, 0.99) == pytest.approx(0.99)
        # ... and lo/hi clamp the estimate into the observed range.
        clamped = quantile_from_buckets(one, 0.5, lo=0.8, hi=0.9)
        assert 0.8 <= clamped <= 0.9

    def test_prometheus_exposition_has_buckets_and_types(self):
        from repro.obs import check_exposition

        registry = MetricsRegistry()
        h = registry.histogram("lat.total", buckets=(0.5, 1.0))
        h.observe(0.2, route="run")
        h.observe(0.7, route="run")
        registry.counter("req").inc(route="a\\b\"c\nd")  # escaping probe
        text = registry.render_prometheus()
        samples = check_exposition(text)  # raises on malformed output
        by_key = {s.key(): s.value for s in samples}
        assert by_key['lat_total_bucket{le=0.5,route=run}'] == 1.0
        assert by_key['lat_total_bucket{le=1,route=run}'] == 2.0
        assert by_key['lat_total_bucket{le=+Inf,route=run}'] == 2.0
        assert by_key['lat_total_count{route=run}'] == 2.0
        assert by_key['lat_total_sum{route=run}'] == pytest.approx(0.9)
        # the escaped label round-trips through the parser
        escaped = next(s for s in samples if s.name == "req")
        assert escaped.labels_dict()["route"] == 'a\\b"c\nd'
        # every emitted series family is TYPE-announced
        _, types = __import__(
            "repro.obs.promtext", fromlist=["parse_exposition"]
        ).parse_exposition(text)
        assert types["lat_total"] == "histogram"
        assert types["req"] == "counter"

    def test_merge_flat_snapshots_pools_buckets(self):
        r1, r2 = MetricsRegistry(), MetricsRegistry()
        for registry, values in ((r1, [0.2]), (r2, [0.7, 2.0])):
            h = registry.histogram("lat", buckets=(0.5, 1.0))
            for v in values:
                h.observe(v)
        merged = merge_flat_snapshots([r1.flat_snapshot(), r2.flat_snapshot()])
        entry = next(e for e in merged if e["metric"] == "lat")
        assert entry["count"] == 3
        assert entry["buckets"] == [["0.5", 1], ["1", 2], ["+Inf", 3]]

    def test_merge_expositions_sums_and_stays_conformant(self):
        """The cluster front's /metrics merge: sum by identity, union
        TYPE lines, and re-emit something the checker accepts."""
        from repro.obs import check_exposition
        from repro.obs.promtext import merge_expositions, sum_by_name

        def scrape(count, bucket_values):
            registry = MetricsRegistry()
            registry.counter("serve.requests").inc(count, route="run")
            h = registry.histogram("lat.total", buckets=(0.5, 1.0))
            for v in bucket_values:
                h.observe(v)
            return registry.render_prometheus()

        merged = merge_expositions([scrape(3, [0.2]), scrape(4, [0.7])])
        samples = check_exposition(merged)  # raises on malformed merge
        assert sum_by_name(samples, "serve_requests") == 7.0
        by_key = {s.key(): s.value for s in samples}
        assert by_key["lat_total_bucket{le=0.5}"] == 1.0
        assert by_key["lat_total_bucket{le=+Inf}"] == 2.0
        assert by_key["lat_total_count"] == 2.0

    def test_merge_expositions_preserves_label_escapes(self):
        from repro.obs.promtext import merge_expositions, parse_exposition

        registry = MetricsRegistry()
        registry.counter("req").inc(route='a\\b"c\nd')
        merged = merge_expositions(
            [registry.render_prometheus(), registry.render_prometheus()]
        )
        samples, _ = parse_exposition(merged)
        escaped = next(s for s in samples if s.name == "req")
        assert escaped.labels_dict()["route"] == 'a\\b"c\nd'
        assert escaped.value == 2.0

    def test_merge_expositions_empty(self):
        from repro.obs.promtext import merge_expositions

        assert merge_expositions([]) == ""


class TestServeTelemetryAB:
    """Telemetry on vs off must not change a single response byte."""

    REQUEST = {
        "algorithm": "bfs",
        "dataset": "human",
        "gpu": "TX1",
        "mode": "scu-enhanced",
    }

    def _serve_one(self, config):
        import threading
        import urllib.request

        from repro.serve import SimulationService, make_server

        clear_run_cache()
        service = SimulationService(config)
        httpd = make_server(service, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        host, port = httpd.server_address[:2]
        try:
            request = urllib.request.Request(
                f"http://{host}:{port}/run",
                data=json.dumps(self.REQUEST).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=60.0) as response:
                return response.read()
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.drain(timeout_s=10.0)
            service.close()
            clear_run_cache()

    def test_responses_identical_with_telemetry_on_off(self, tmp_path):
        from repro.algorithms import execute_request
        from repro.serve import ServiceConfig, encode, run_response

        body_on = self._serve_one(
            ServiceConfig(
                port=0,
                telemetry=True,
                access_log=str(tmp_path / "access.jsonl"),
            )
        )
        body_off = self._serve_one(ServiceConfig(port=0, telemetry=False))
        assert body_on == body_off
        # ... and both equal the in-process simulation, so telemetry
        # changed no simulated metric either.
        request = RunRequest.make("bfs", "human", "TX1", "scu-enhanced")
        local = execute_request(request).report
        assert body_on == encode(run_response(request, local))
