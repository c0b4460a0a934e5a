"""Cross-cutting observability: span tracing, metrics, profiles.

One :class:`Observability` bundle — a :class:`~repro.obs.tracer.Tracer`
plus a :class:`~repro.obs.metrics.MetricsRegistry` — is threaded through
``build_system``/``run_algorithm`` into every simulator layer: the GPU
device, the memory hierarchy, the SCU, and the algorithm drivers.  The
two planes are independent: each instrumentation site asks only the
plane it feeds (``obs.tracer.enabled`` before building span attributes,
``obs.metrics.enabled`` before building metric updates), so a run that
only traces — ``Observability(tracer=Tracer(), metrics=NULL_METRICS)``,
what the service's traced simulations use — pays only for its spans.
The default is :data:`NULL_OBS`, whose tracer and registry are no-ops,
so instrumentation costs nothing when nobody is looking and — by
construction, verified by an A/B test — never changes a simulated
number.

Typical use::

    from repro.obs import make_observability

    obs = make_observability()
    outcome = run_algorithm("bfs", graph, "TX1", mode, obs=obs)
    obs.tracer.write_chrome("trace.json")   # open in ui.perfetto.dev
    print(obs.metrics.render())
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lru import LruCache
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    global_metrics,
    merge_flat_snapshots,
    quantile_from_buckets,
)
from .promtext import (
    PromSample,
    bucket_cumulative,
    check_exposition,
    diff_cumulative,
    parse_exposition,
    sample_map,
    sum_by_name,
)
from .profile import (
    render_sim_profile,
    render_wall_profile,
    sim_profile,
    wall_profile,
)
from .propagation import (
    TRACEPARENT_HEADER,
    TraceContext,
    format_traceparent,
    make_context,
    new_span_id,
    new_trace_id,
    parse_traceparent,
)
from .spans import (
    SIM_SPAN_CATEGORIES,
    SPAN_SCHEMA_VERSION,
    SpanRecord,
    SpanStore,
    count_sim_phase_spans,
    epoch_us_now,
    perf_to_epoch_us,
    reparent_spans,
    sanitize_attributes,
    spans_to_chrome,
)
from .tracer import NULL_TRACER, NullTracer, Tracer


@dataclass(frozen=True)
class Observability:
    """The tracer + metrics pair one observed run shares across layers.

    Frozen so an instance is hashable and can serve directly as a
    dataclass field default (:data:`NULL_OBS`) in every instrumented
    layer; the tracer and registry it points at stay mutable.
    """

    tracer: Tracer = field(default_factory=Tracer)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)


#: Shared disabled bundle — the default of every instrumented layer.
NULL_OBS = Observability(tracer=NULL_TRACER, metrics=NULL_METRICS)


def make_observability() -> Observability:
    """A fresh enabled tracer + registry for one observed run."""
    return Observability(tracer=Tracer(), metrics=MetricsRegistry())


__all__ = [
    "Observability",
    "NULL_OBS",
    "make_observability",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "quantile_from_buckets",
    "global_metrics",
    "merge_flat_snapshots",
    "PromSample",
    "parse_exposition",
    "check_exposition",
    "sample_map",
    "sum_by_name",
    "bucket_cumulative",
    "diff_cumulative",
    "LruCache",
    "TRACEPARENT_HEADER",
    "TraceContext",
    "parse_traceparent",
    "format_traceparent",
    "make_context",
    "new_trace_id",
    "new_span_id",
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
    "wall_profile",
    "sim_profile",
    "render_wall_profile",
    "render_sim_profile",
]
