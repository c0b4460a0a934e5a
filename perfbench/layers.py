"""Metric definitions: end-to-end figures and the per-layer breakdown.

``PER_LAYER`` is the source of the per-layer names in ``BENCHMARK.json``
and of the prediction printed beside each value: the end-to-end metric a
change to that layer should move.  Each entry reads the folded span
totals of a traced run (see ``tracing.py``).
"""

from __future__ import annotations

import json
import math
import statistics
from typing import Callable, Dict, List, Tuple

import calibrate
from tracing import BLOCKED, COUNTERS, ROOT, WALL

WORKLOADS = ("pagerank", "traversal", "serve")

#: Latency charged to a request that failed or was refused: the client
#: gives up after this long, so it is over any latency limit.
FAILED_LATENCY_S = 30.0

#: A traced run accounts for its wall time when the layers' self times
#: (plus queue waits) sum to within this share of it.
COVERAGE_TOLERANCE = 0.05


def load_spec(path: str = "BENCHMARK.json") -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _nearest_rank(values, share: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- end to end ------------------------------------------------------------


def setup_s(run: dict) -> float:
    """A worker's set-up time in reference seconds (``calibrate.py``)."""
    return run["setup_s"] * calibrate.factor(run["setup_calibration"])


def sweep_end_to_end(run: dict) -> Dict[str, float]:
    """Sweep figures from per-request times (medians over passes), in
    reference seconds at the host speed of the window's calibration."""
    scale = calibrate.factor(run["calibration"])
    medians = [statistics.median(times) * scale
               for times in run["samples"].values() if times]
    tail = statistics.quantiles(medians, n=100, method="inclusive")[98]
    return {
        "setup_s": setup_s(run),
        "sweep_s": sum(medians),
        "p50_ms": statistics.median(medians) * 1e3,
        "p99_ms": tail * 1e3,
        "peak_rss_mb": run["peak_rss_mb"],
    }


def sweep_samples(run: dict, setups: int) -> Dict[str, str]:
    requests = len(run["samples"])
    timed = sum(len(times) for times in run["samples"].values())
    per = f"{requests} requests, {timed} timed calls"
    return {"setup_s": f"{setups} set-ups", "sweep_s": per, "p50_ms": per,
            "p99_ms": per, "peak_rss_mb": "1 process"}


def serve_end_to_end(run: dict) -> Dict[str, float]:
    """Open-loop latency percentiles from due time, and the daemon's CPU
    time over the window: what one pass over the schedule costs the host.
    All in reference seconds at the host speed of the calibration slices
    taken just before and just after the window."""
    scale = calibrate.factor(run["calibration"])
    latencies = [FAILED_LATENCY_S if value is None else value * scale
                 for value in run["window"]["latencies"]]
    return {
        "setup_s": run["setup_s"] * scale,
        "sweep_s": run["window"]["daemon_cpu_s"] * scale,
        "p50_ms": _nearest_rank(latencies, 0.50) * 1e3,
        "p99_ms": _nearest_rank(latencies, 0.99) * 1e3,
        "peak_rss_mb": run["peak_rss_mb"],
    }


def serve_samples(run: dict) -> Dict[str, str]:
    n = len(run["window"]["latencies"])
    beyond = n - math.ceil(0.99 * n)
    return {"setup_s": "1 set-up", "sweep_s": f"daemon CPU over {n} requests",
            "p50_ms": f"{n} requests", "p99_ms": f"{n} requests, {beyond} beyond",
            "peak_rss_mb": "1 process"}


# -- per layer -------------------------------------------------------------

Reader = Callable[[dict], float]


def _self(*names: str) -> Reader:
    return lambda t: sum(t["self_s"].get(name, 0.0) for name in names)


def _calls(name: str) -> Reader:
    return lambda t: float(t["calls"].get(name, 0))


def _count(name: str) -> Reader:
    return lambda t: float(t["counters"].get(name, 0.0))


def _per(num: Reader, den: Reader) -> Reader:
    return lambda t: _ratio(num(t), den(t))


def _counted(span: str) -> Tuple[str, str]:
    """What a count read at ``span``'s boundary depends on: the span, and
    its counter hook (lost when the call's shape changes)."""
    return span, f"{span} {COUNTERS}"


def _coverage(t: dict) -> float:
    covered = sum(value for name, value in t["self_s"].items()
                  if name not in (ROOT, BLOCKED))
    covered += t["counters"].get("serve.queue_wait_s", 0.0)
    return _ratio(covered, t["counters"].get(WALL, 0.0))


def _wire_ms(t: dict) -> float:
    client = t.get("client_s") or []
    calls = t["calls"].get("serve.http", 0)
    if not client or not calls:
        return 0.0
    server = t["total_s"].get("serve.http", 0.0) / calls
    return (sum(client) / len(client) - server) * 1e3


def _lag_ms(t: dict) -> float:
    lags = t.get("lags") or []
    return _nearest_rank(lags, 0.99) * 1e3 if lags else 0.0


#: (name, unit, better, reader, span names it reads, should move).
PER_LAYER: Tuple[Tuple[str, str, str, Reader, Tuple[str, ...], str], ...] = (
    ("graph.load_s", "s", "lower", _self("graph.load"), ("graph.load",), "setup_s"),
    ("graph.loads", "count", "lower", _calls("graph.load"), ("graph.load",), "setup_s"),
    ("backends.build_s", "s", "lower", _self("backends.build"), ("backends.build",), "sweep_s"),
    ("backends.iru.intercept_s", "s", "lower", _self("backends.iru.intercept"),
     ("backends.iru.intercept",), "sweep_s"),
    ("backends.iru.elements", "count", "lower", _count("backends.iru.elements"),
     _counted("backends.iru.intercept"), "sweep_s"),
    ("algorithms.self_s", "s", "lower", _self("algorithms"), ("algorithms",),
     "sweep_s on pagerank"),
    ("algorithms.requests", "count", "lower", _calls("algorithms"), ("algorithms",), "none"),
    ("gpu.run.self_s", "s", "lower", _self("gpu.run"), ("gpu.run",), "sweep_s"),
    ("gpu.kernels", "count", "lower", _calls("gpu.run"), ("gpu.run",), "sweep_s"),
    ("core.scu.self_s", "s", "lower", _self("core.scu"), ("core.scu",),
     "sweep_s on traversal"),
    ("core.scu.ops", "count", "lower", _calls("core.scu"), ("core.scu",), "sweep_s on traversal"),
    ("core.filter_s", "s", "lower", _self("core.filter"), ("core.filter",),
     "sweep_s on traversal"),
    ("core.group_s", "s", "lower", _self("core.group"), ("core.group",), "sweep_s on traversal"),
    ("mem.coalesce_warp_s", "s", "lower", _self("mem.coalesce_warp"), ("mem.coalesce_warp",),
     "sweep_s"),
    ("mem.coalesce_stream_s", "s", "lower", _self("mem.coalesce_stream"),
     ("mem.coalesce_stream",), "sweep_s on pagerank"),
    ("mem.coalesce_warp.calls", "count", "lower", _calls("mem.coalesce_warp"),
     ("mem.coalesce_warp",), "sweep_s"),
    ("mem.coalesce_stream.calls", "count", "lower", _calls("mem.coalesce_stream"),
     ("mem.coalesce_stream",), "sweep_s"),
    ("mem.coalesce_warp.factor", "ratio", "higher",
     _per(_count("mem.coalesce_warp.accesses"), _count("mem.coalesce_warp.transactions")),
     _counted("mem.coalesce_warp"), "none (simulated property)"),
    ("mem.coalesce_stream.factor", "ratio", "higher",
     _per(_count("mem.coalesce_stream.accesses"), _count("mem.coalesce_stream.transactions")),
     _counted("mem.coalesce_stream"), "none (simulated property)"),
    ("mem.hierarchy.self_s", "s", "lower", _self("mem.hierarchy"), ("mem.hierarchy",),
     "sweep_s (per-call cost on traversal)"),
    ("mem.hierarchy.calls", "count", "lower", _calls("mem.hierarchy"), ("mem.hierarchy",),
     "sweep_s"),
    ("mem.hierarchy.tx_per_call", "count", "higher",
     _per(_count("mem.hierarchy.transactions"), _calls("mem.hierarchy")),
     _counted("mem.hierarchy"), "none (input property)"),
    ("mem.hierarchy.repeat_share", "ratio", "higher",
     _per(_count("mem.hierarchy.repeat_transactions"), _count("mem.hierarchy.transactions")),
     _counted("mem.hierarchy"), "none (what a stream memo could skip)"),
    ("mem.locality.profile_s", "s", "lower", _self("mem.locality.profile"),
     ("mem.locality.profile",), "sweep_s on pagerank"),
    ("mem.dram_s", "s", "lower", _self("mem.dram"), ("mem.dram",), "sweep_s on traversal"),
    ("mem.address_space.arrays", "count", "lower", _calls("mem.address_space.array"),
     ("mem.address_space.array",), "sweep_s on pagerank"),
    ("mem.address_space.addresses_s", "s", "lower", _self("mem.address_space.addresses"),
     ("mem.address_space.addresses",), "sweep_s on pagerank"),
    ("phases.finalize_s", "s", "lower", _self("phases.finalize"), ("phases.finalize",), "none"),
    ("serve.parse_s", "s", "lower", _self("serve.parse"), ("serve.parse",), "p50_ms"),
    ("serve.encode_s", "s", "lower", _self("serve.encode"), ("serve.encode",), "p50_ms"),
    ("serve.handle.self_s", "s", "lower",
     _self("serve.handle", "serve.worker", "serve.submit", "serve.cache"),
     ("serve.handle",), "p50_ms"),
    ("serve.telemetry_s", "s", "lower", _self("serve.telemetry"), ("serve.telemetry",),
     "p50_ms"),
    ("serve.queue_wait_s", "s", "lower", _count("serve.queue_wait_s"), ("serve.submit",),
     "p99_ms"),
    ("serve.http.self_s", "s", "lower", _self("serve.http"), ("serve.http",), "p50_ms"),
    ("serve.l1_hit_ratio", "ratio", "higher",
     _per(_count("serve.cache.l1"), _count("serve.cache.probes")), _counted("serve.cache"),
     "p50_ms"),
    ("serve.l2_hit_ratio", "ratio", "higher",
     _per(_count("serve.cache.l2"), _count("serve.cache.probes")), _counted("serve.cache"),
     "p50_ms"),
    ("serve.store.get_s", "s", "lower", _self("serve.store.get"), ("serve.store.get",),
     "p50_ms"),
    ("serve.store.put_s", "s", "lower", _self("serve.store.put"), ("serve.store.put",),
     "p99_ms"),
    ("serve.simulations", "count", "lower", _calls("serve.simulate"), ("serve.simulate",),
     "p99_ms"),
    ("serve.simulate_s", "s", "lower",
     lambda t: t["total_s"].get("serve.simulate", 0.0), ("serve.simulate",), "p99_ms"),
    ("client.lag_p99_ms", "ms", "lower", _lag_ms, (), "none (validity of serve numbers)"),
    ("client.wire_ms", "ms", "lower", _wire_ms, ("serve.http",), "p50_ms"),
    (WALL, "s", "lower", _count(WALL), (), "none"),
    ("trace.coverage", "ratio", "higher", _coverage, (), "none"),
    ("trace.missing", "count", "lower", lambda t: float(len(t["missing"])), (), "none"),
)


#: Per-layer metrics that compare the traced run with its untraced twin
#: rather than read the spans: (name, unit, better).
FROM_PLAIN = (
    # Simulated memory transactions per reference second of the
    # untraced sweep: keeps host speed comparable when a change alters
    # how many events the model simulates.  Zero on serve.
    ("sim_tx_per_s", "1/s", "higher"),
    # Traced over untraced sweep_s (sweeps) or p50_ms (serve), minus one.
    ("trace.overhead", "ratio", "lower"),
)


def per_layer(traced: dict, from_plain: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric from one traced worker's output."""
    trace = dict(traced["trace"])
    window = traced.get("window") or {}
    trace["client_s"] = window.get("client_s")
    trace["lags"] = window.get("lags")
    metrics = {name: float(reader(trace)) for name, _, _, reader, _, _ in PER_LAYER}
    metrics.update({name: float(from_plain[name]) for name, _, _ in FROM_PLAIN})
    return metrics


def spec_entries() -> List[dict]:
    """The ``per_layer`` list of ``BENCHMARK.json``."""
    return [{"name": name, "unit": unit, "better": better}
            for name, unit, better, *_ in PER_LAYER + FROM_PLAIN]


def layer_table(metrics: Dict[str, float], trace: dict) -> str:
    """Per-layer table: value, share of traced wall, prediction, status."""
    missing = trace.get("missing", [])
    gone = {entry.split(" (")[0] for entry in missing}
    wall = metrics[WALL]
    lines = [f"{'layer metric':<32} {'value':>12} {'unit':<6} {'wall':>6}  should move"]
    for name, unit, _, _, spans, moves in PER_LAYER:
        share = f"{metrics[name] / wall:6.1%}" if unit == "s" and wall else ""
        status = "  [missing]" if gone.intersection(spans) else ""
        lines.append(f"{name:<32} {metrics[name]:>12.6g} {unit:<6} {share:>6}  {moves}{status}")
    for name, unit, _ in FROM_PLAIN:
        lines.append(f"{name:<32} {metrics[name]:>12.6g} {unit}")
    coverage = metrics["trace.coverage"]
    verdict = "within" if abs(1.0 - coverage) <= COVERAGE_TOLERANCE else "OUTSIDE"
    lines.append(f"self times cover {coverage:.1%} of traced wall, {verdict} the "
                 f"{COVERAGE_TOLERANCE:.0%} tolerance")
    if missing:
        lines.append("missing wrap targets: " + ", ".join(missing))
    return "\n".join(lines)
