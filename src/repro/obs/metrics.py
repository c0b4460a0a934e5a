"""Labelled metrics registry: counters, gauges, histograms.

The simulator's hot layers record *what happened* here — hash-table
occupancy, L2 hit rates, coalescing factors, frontier sizes — keyed by
metric name plus a small label set (``scu.filter.keep_rate{scheme=bfs}``).
A registry is cheap enough to leave on unconditionally for scalar
updates; code that must *compute* a value first (an occupancy scan, a
group-size histogram) guards on ``metrics.enabled``.

Instruments follow the Prometheus vocabulary:

* :class:`Counter` — monotonically increasing totals (``inc``);
* :class:`Gauge` — last-write-wins values (``set``);
* :class:`Histogram` — running count/sum/min/max of observations,
  with a vectorized ``observe_many`` for per-element series.  A
  histogram may additionally be registered with fixed *buckets* (e.g.
  :data:`DEFAULT_LATENCY_BUCKETS`, log-spaced from 0.5 ms to ~65 s):
  it then also keeps cumulative per-bucket counts, renders Prometheus
  ``_bucket{le=...}`` series, and can estimate quantiles
  (:meth:`Histogram.quantile`) by linear interpolation inside the
  bucket that contains the target rank.

:class:`NullMetrics` is the disabled registry: it hands out shared
no-op instruments, so instrumentation sites never branch.

**Thread safety.**  A registry and its instruments share one lock: an
update (``inc``, ``set``, ``observe``, ``observe_many``), a get-or-create
and a snapshot or render are each atomic, so the serve daemon's handler
and worker threads record into one registry without losing updates and
never render a half-applied one.  The lock is re-entrant, because a
render reads every instrument while holding it.  The null instruments
take no lock.
"""

from __future__ import annotations

import bisect
import math
import re
import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ObservabilityError

LabelKey = Tuple[Tuple[str, str], ...]

#: One instrument update held for later, ``(kind, name, value, labels)``:
#: kind ``"counter"`` increments by ``value``, ``"histogram"`` observes it.
Update = Tuple[str, str, float, Dict[str, Any]]

#: Log-spaced (factor-2) latency buckets: 0.5 ms .. ~65.5 s.  Wide
#: enough for a cached hit and a cold multi-second simulation alike;
#: the implicit ``+Inf`` bucket catches everything beyond.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    0.0005 * 2**k for k in range(18)
)


def _normalize_buckets(buckets: Sequence[float]) -> Tuple[float, ...]:
    """Validate explicit bucket bounds: finite, strictly increasing."""
    bounds = tuple(float(b) for b in buckets if not math.isinf(float(b)))
    if not bounds:
        raise ObservabilityError("histogram buckets need at least one finite bound")
    if any(not math.isfinite(b) for b in bounds):
        raise ObservabilityError("histogram bucket bounds must be finite numbers")
    if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        raise ObservabilityError("histogram buckets must be strictly increasing")
    return bounds


def format_le(bound: float) -> str:
    """Canonical ``le`` label value for one bucket bound."""
    if math.isinf(bound):
        return "+Inf"
    return f"{bound:g}"


def quantile_from_buckets(
    cumulative: Sequence[Tuple[float, float]],
    q: float,
    *,
    lo: Optional[float] = None,
    hi: Optional[float] = None,
) -> float:
    """Estimate the ``q``-quantile from cumulative bucket counts.

    ``cumulative`` is a sequence of ``(upper_bound, cumulative_count)``
    pairs sorted by bound, whose last entry is the ``+Inf`` bucket (its
    count is the total).  The estimate interpolates linearly inside the
    bucket containing the target rank — the standard
    ``histogram_quantile`` model.  ``lo``/``hi`` (e.g. the observed
    min/max) clamp the open-ended first and last buckets so estimates
    never leave the observed range.
    """
    if not cumulative:
        return 0.0
    total = cumulative[-1][1]
    if total <= 0:
        return 0.0
    q = min(max(float(q), 0.0), 1.0)
    target = q * total
    lower = lo if lo is not None else 0.0
    prev_cum = 0.0
    for bound, cum in cumulative:
        if cum >= target:
            upper = bound
            if math.isinf(upper):
                upper = hi if hi is not None else lower
            if hi is not None:
                upper = min(upper, hi)
            if upper < lower:
                upper = lower
            in_bucket = cum - prev_cum
            value = (
                upper
                if in_bucket <= 0
                else lower + (upper - lower) * (target - prev_cum) / in_bucket
            )
            if lo is not None:
                value = max(value, lo)
            if hi is not None:
                value = min(value, hi)
            return value
        prev_cum = cum
        lower = max(bound, lower) if lo is not None else bound
    return hi if hi is not None else cumulative[-1][0]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _format_labels(key: LabelKey) -> str:
    if not key:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in key) + "}"


class Counter:
    """Monotonic total, one running sum per label combination.

    ``lock`` is the owning registry's; a standalone instrument has its own.
    """

    kind = "counter"

    def __init__(self, name: str, lock: Any = None):
        self.name = name
        self._lock = lock if lock is not None else threading.RLock()
        self._series: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        with self._lock:
            self._add(amount, labels)

    def _add(self, amount: float, labels: Dict[str, Any]) -> None:
        """:meth:`inc`, for a caller that holds the lock."""
        if amount < 0:
            raise ObservabilityError(f"counter {self.name}: negative increment")
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self._series.get(_label_key(labels), 0.0)

    def total(self) -> float:
        with self._lock:
            return sum(self._series.values())

    def snapshot(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._series.items())
            ]


class Gauge:
    """Last-write-wins value per label combination."""

    kind = "gauge"

    def __init__(self, name: str, lock: Any = None):
        self.name = name
        self._lock = lock if lock is not None else threading.RLock()
        self._series: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = float(value)

    def value(self, **labels: Any) -> float:
        key = _label_key(labels)
        if key not in self._series:
            raise ObservabilityError(
                f"gauge {self.name}: no sample for labels {dict(key)}"
            )
        return self._series[key]

    def snapshot(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._series.items())
            ]


class _HistogramSeries:
    __slots__ = ("count", "sum", "min", "max", "bucket_counts")

    def __init__(self, n_buckets: int = 0):
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        # One bin per finite bound plus the +Inf overflow bin; None when
        # the histogram was registered without buckets.
        self.bucket_counts: Optional[List[int]] = (
            [0] * (n_buckets + 1) if n_buckets else None
        )

    def add(self, value: float, bounds: Optional[Tuple[float, ...]] = None) -> None:
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        if self.bucket_counts is not None and bounds is not None:
            self.bucket_counts[bisect.bisect_left(bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def cumulative_buckets(self, bounds: Tuple[float, ...]) -> List[List[Any]]:
        """``[[le_label, cumulative_count], ...]`` ending at ``+Inf``."""
        assert self.bucket_counts is not None
        out: List[List[Any]] = []
        cum = 0
        for bound, count in zip(bounds, self.bucket_counts):
            cum += count
            out.append([format_le(bound), cum])
        out.append(["+Inf", self.count])
        return out


class Histogram:
    """Running count/sum/min/max of observed values per label set.

    With explicit ``buckets`` (finite, strictly increasing upper
    bounds) the histogram additionally counts observations per bucket
    — cumulatively at exposition time, Prometheus-style — and can
    estimate arbitrary quantiles from those counts.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        lock: Any = None,
    ):
        self.name = name
        self.buckets: Optional[Tuple[float, ...]] = (
            None if buckets is None else _normalize_buckets(buckets)
        )
        self._lock = lock if lock is not None else threading.RLock()
        self._series: Dict[LabelKey, _HistogramSeries] = {}

    def _series_for(self, labels: Dict[str, Any]) -> _HistogramSeries:
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            n_buckets = len(self.buckets) if self.buckets is not None else 0
            series = self._series[key] = _HistogramSeries(n_buckets)
        return series

    def observe(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._add(value, labels)

    def _add(self, value: float, labels: Dict[str, Any]) -> None:
        """:meth:`observe`, for a caller that holds the lock."""
        self._series_for(labels).add(float(value), self.buckets)

    def observe_many(self, values: Iterable[float], **labels: Any) -> None:
        """Vectorized bulk observation (group sizes, per-stream factors)."""
        arr = np.asarray(values, dtype=np.float64)
        if arr.size == 0:
            return
        total, low, high = float(arr.sum()), float(arr.min()), float(arr.max())
        counts = None
        if self.buckets is not None:
            indices = np.searchsorted(np.asarray(self.buckets), arr, side="left")
            counts = np.bincount(indices, minlength=len(self.buckets) + 1)
        with self._lock:
            series = self._series_for(labels)
            series.count += int(arr.size)
            series.sum += total
            series.min = min(series.min, low)
            series.max = max(series.max, high)
            if counts is not None:
                for i, count in enumerate(counts):
                    series.bucket_counts[i] += int(count)

    def stats(self, **labels: Any) -> Dict[str, float]:
        key = _label_key(labels)
        with self._lock:
            if key not in self._series:
                return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
            s = self._series[key]
            return {
                "count": s.count,
                "sum": s.sum,
                "min": s.min,
                "max": s.max,
                "mean": s.mean,
            }

    def quantile(self, q: float, **labels: Any) -> float:
        """Estimate the ``q``-quantile from this series' bucket counts.

        Linear interpolation inside the bucket holding the target rank,
        clamped to the observed min/max.  Requires the histogram to
        have been registered with buckets.
        """
        if self.buckets is None:
            raise ObservabilityError(
                f"histogram {self.name}: quantile needs fixed buckets"
            )
        with self._lock:
            series = self._series.get(_label_key(labels))
            if series is None or series.count == 0:
                return 0.0
            cumulative = [
                (bound, cum)
                for bound, (_, cum) in zip(
                    tuple(self.buckets) + (float("inf"),),
                    series.cumulative_buckets(self.buckets),
                )
            ]
            return quantile_from_buckets(
                cumulative, q, lo=series.min, hi=series.max
            )

    def snapshot(self) -> List[Dict[str, Any]]:
        out: List[Dict[str, Any]] = []
        with self._lock:
            for key, s in sorted(self._series.items()):
                entry: Dict[str, Any] = {
                    "labels": dict(key),
                    "count": s.count,
                    "sum": s.sum,
                    "min": s.min,
                    "max": s.max,
                    "mean": s.mean,
                }
                if self.buckets is not None:
                    entry["buckets"] = s.cumulative_buckets(self.buckets)
                out.append(entry)
        return out


class MetricsRegistry:
    """Get-or-create home of every instrument recorded during one run."""

    enabled = True

    def __init__(self):
        self._lock = threading.RLock()
        self._metrics: Dict[str, Any] = {}

    def _get(self, name: str, cls, **options: Any):
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.setdefault(
                    name, cls(name, lock=self._lock, **options)
                )
        if not isinstance(metric, cls):
            raise ObservabilityError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        metric = self._get(name, Histogram, buckets=buckets)
        if buckets is not None and metric.buckets != _normalize_buckets(buckets):
            raise ObservabilityError(
                f"histogram {name!r} already registered with different buckets"
            )
        return metric

    def record(self, updates: Iterable[Update]) -> None:
        """Apply ``updates`` in order, exactly as the ``inc`` / ``observe``
        calls they stand for, under one hold of the lock.  A layer that
        prices work once and reports it later keeps its updates in this
        form (see :meth:`repro.gpu.device.GpuDevice.price`)."""
        with self._lock:
            for kind, name, value, labels in updates:
                if kind == "counter":
                    self.counter(name)._add(value, labels)
                else:
                    self.histogram(name)._add(value, labels)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """JSON-serializable dump of every series of every metric."""
        with self._lock:
            return {
                name: {"kind": metric.kind, "series": metric.snapshot()}
                for name, metric in sorted(self._metrics.items())
            }

    def flat_snapshot(self) -> List[Dict[str, Any]]:
        """Label-flattened, deterministically ordered JSON form.

        One entry per (metric, label set), sorted by metric name and
        then by the canonical label string, regardless of insertion or
        observation order — so two registries that recorded the same
        data serialize identically (bench artifacts diff cleanly).
        Counter/gauge entries carry ``value``; histograms carry their
        count/sum/min/max/mean stats.
        """
        out: List[Dict[str, Any]] = []
        for name, payload in self.snapshot().items():
            for series in payload["series"]:
                entry: Dict[str, Any] = {
                    "metric": name,
                    "kind": payload["kind"],
                    "labels": _format_labels(_label_key(series["labels"])),
                }
                if payload["kind"] == "histogram":
                    for stat in ("count", "sum", "min", "max", "mean"):
                        entry[stat] = series[stat]
                    if "buckets" in series:
                        entry["buckets"] = [list(pair) for pair in series["buckets"]]
                else:
                    entry["value"] = series["value"]
                out.append(entry)
        return out

    def render_prometheus(self) -> str:
        """Prometheus text-exposition dump (the ``/metrics`` endpoint).

        Metric names are sanitized to the Prometheus charset (dots
        become underscores) and label values are escaped per the text
        format.  Counters and gauges emit one sample per label set.
        Bucketed histograms emit the native Prometheus histogram
        family — cumulative ``_bucket{le=...}`` series (ending at
        ``+Inf``), ``_sum`` and ``_count`` — plus ``_min``/``_max``
        gauges; bucketless histograms emit
        ``_count``/``_sum``/``_min``/``_max`` gauge series.  Every
        emitted series name is announced by its own ``# TYPE`` line,
        and output is deterministically ordered, like every other
        snapshot form in this module.
        """
        with self._lock:
            taken = [
                (name, metric, metric.snapshot())
                for name, metric in sorted(self._metrics.items())
            ]
        lines: List[str] = []
        for name, metric, series_list in taken:
            base = _prometheus_name(name)
            if metric.kind == "histogram":
                if getattr(metric, "buckets", None) is not None:
                    lines.append(f"# TYPE {base} histogram")
                    for series in series_list:
                        for le, cum in series["buckets"]:
                            labels = _prometheus_labels(
                                {**series["labels"], "le": le}
                            )
                            lines.append(f"{base}_bucket{labels} {cum!r}")
                        labels = _prometheus_labels(series["labels"])
                        lines.append(f"{base}_sum{labels} {series['sum']!r}")
                        lines.append(f"{base}_count{labels} {series['count']!r}")
                    extra_stats: Tuple[str, ...] = ("min", "max")
                else:
                    extra_stats = ("count", "sum", "min", "max")
                for stat in extra_stats:
                    lines.append(f"# TYPE {base}_{stat} gauge")
                    for series in series_list:
                        labels = _prometheus_labels(series["labels"])
                        lines.append(f"{base}_{stat}{labels} {series[stat]!r}")
            else:
                lines.append(f"# TYPE {base} {metric.kind}")
                for series in series_list:
                    labels = _prometheus_labels(series["labels"])
                    lines.append(f"{base}{labels} {series['value']!r}")
        return "\n".join(lines) + ("\n" if lines else "")

    def render(self) -> str:
        """Human-readable dump, one line per (metric, label set)."""
        lines: List[str] = []
        for name, payload in self.snapshot().items():
            for series in payload["series"]:
                labels = _format_labels(_label_key(series["labels"]))
                if payload["kind"] == "histogram":
                    lines.append(
                        f"{name}{labels} count={series['count']} "
                        f"mean={series['mean']:.4g} min={series['min']:.4g} "
                        f"max={series['max']:.4g}"
                    )
                else:
                    lines.append(f"{name}{labels} {series['value']:.6g}")
        return "\n".join(lines)


def _prometheus_name(name: str) -> str:
    return re.sub(r"[^a-zA-Z0-9_:]", "_", name)


def _escape_label_value(value: str) -> str:
    """Prometheus text-format label escaping: ``\\``, ``"``, newline."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _prometheus_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_prometheus_name(k)}="{_escape_label_value(str(v))}"'
        for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


class _NullCounter(Counter):
    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        pass


class _NullGauge(Gauge):
    def set(self, value: float, **labels: Any) -> None:
        pass


class _NullHistogram(Histogram):
    def observe(self, value: float, **labels: Any) -> None:
        pass

    def observe_many(self, values: Iterable[float], **labels: Any) -> None:
        pass

    def quantile(self, q: float, **labels: Any) -> float:
        return 0.0


_NULL_COUNTER = _NullCounter("null")
_NULL_GAUGE = _NullGauge("null")
_NULL_HISTOGRAM = _NullHistogram("null")


class NullMetrics(MetricsRegistry):
    """Disabled registry: shared no-op instruments, nothing retained."""

    enabled = False

    def counter(self, name: str) -> Counter:
        return _NULL_COUNTER

    def record(self, updates: Iterable[Update]) -> None:
        pass

    def gauge(self, name: str) -> Gauge:
        return _NULL_GAUGE

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        return _NULL_HISTOGRAM


def merge_flat_snapshots(
    snapshots: Iterable[List[Dict[str, Any]]],
) -> List[Dict[str, Any]]:
    """Combine ``flat_snapshot`` payloads from several registries.

    The parallel sweep engine runs grid cells in worker processes, each
    with its own registry; this merges their snapshots into the single
    list a bench artifact embeds.  Entries are keyed by (metric, kind,
    labels): counters sum, gauges take the value of the *latest*
    snapshot in iteration order (callers pass snapshots in grid order,
    matching what a shared serial registry would retain), and histograms
    pool their count/sum/min/max with the mean recomputed.  Output
    ordering matches :meth:`MetricsRegistry.flat_snapshot` — sorted by
    metric name then canonical label string — so a merged payload diffs
    cleanly against a serial one.
    """
    merged: Dict[Tuple[str, str, str], Dict[str, Any]] = {}
    for snapshot in snapshots:
        for entry in snapshot:
            key = (entry["metric"], entry["kind"], entry["labels"])
            current = merged.get(key)
            if current is None:
                current = merged[key] = dict(entry)
                if "buckets" in entry:
                    current["buckets"] = [list(pair) for pair in entry["buckets"]]
            elif entry["kind"] == "counter":
                current["value"] += entry["value"]
            elif entry["kind"] == "gauge":
                current["value"] = entry["value"]
            else:  # histogram
                current["count"] += entry["count"]
                current["sum"] += entry["sum"]
                current["min"] = min(current["min"], entry["min"])
                current["max"] = max(current["max"], entry["max"])
                current["mean"] = (
                    current["sum"] / current["count"] if current["count"] else 0.0
                )
                if "buckets" in entry or "buckets" in current:
                    # Cumulative counts over identical bounds add
                    # elementwise; key by le so partial overlap merges.
                    pooled: Dict[str, float] = {
                        le: cum for le, cum in current.get("buckets", [])
                    }
                    for le, cum in entry.get("buckets", []):
                        pooled[le] = pooled.get(le, 0) + cum
                    current["buckets"] = [
                        [le, pooled[le]]
                        for le in sorted(
                            pooled,
                            key=lambda le: (
                                float("inf") if le == "+Inf" else float(le)
                            ),
                        )
                    ]
    return [merged[key] for key in sorted(merged)]


#: Process-wide disabled registry; the default everywhere.
NULL_METRICS = NullMetrics()

#: Process-lifetime registry for infrastructure metrics that exist
#: outside any single observed run (e.g. the run-cache hit/miss
#: counters of :mod:`repro.algorithms.runner`).
_GLOBAL_METRICS = MetricsRegistry()


def global_metrics() -> MetricsRegistry:
    return _GLOBAL_METRICS
