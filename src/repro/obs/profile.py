"""Profile tables derived from a trace and from a run report.

Two complementary attributions:

* :func:`wall_profile` folds span records into a classic
  self-time profile of the *simulator itself* — where the Python
  process spends its wall-clock time (useful for making the simulator
  faster);
* :func:`sim_profile` aggregates a run report's phases by name into a
  *simulated-time* attribution — where the modeled hardware spends its
  time, energy and DRAM traffic (the paper's Figures 1 and 9-13 are
  selections of exactly this table).

Both return plain row dicts; ``render_profile_table`` turns either into
an aligned text table for the ``repro profile`` CLI command.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List

if TYPE_CHECKING:  # avoid an import cycle (phases -> mem -> obs)
    from ..phases import RunReport
    from .spans import SpanRecord


def wall_profile(spans: Iterable["SpanRecord"]) -> List[Dict[str, Any]]:
    """Aggregate span records into per-name total/self wall time.

    Self time is a span's duration minus the durations of the spans
    whose ``parent_id`` names it, so nested instrumentation (an SCU op
    inside an algorithm iteration) is not double-counted, and over one
    whole trace the self times sum to its root's duration.  Any list of
    records folds: a tracer's, or a stitched trace's.  Instants
    (zero-duration records) take no wall time and get no row.  Rows are
    sorted by self time, descending.
    """
    spans = list(spans)
    child_us: Dict[str, float] = {}
    for span in spans:
        if span.parent_id is not None:
            child_us[span.parent_id] = (
                child_us.get(span.parent_id, 0.0) + span.duration_us
            )
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        if not span.duration_us:
            continue
        row = totals.setdefault(
            span.name, {"count": 0, "total_us": 0.0, "self_us": 0.0}
        )
        row["count"] += 1
        row["total_us"] += span.duration_us
        row["self_us"] += span.duration_us - child_us.get(span.span_id, 0.0)
    rows = [
        {
            "name": name,
            "count": int(row["count"]),
            "total_us": row["total_us"],
            "self_us": row["self_us"],
        }
        for name, row in totals.items()
    ]
    rows.sort(key=lambda r: r["self_us"], reverse=True)
    total_self = sum(r["self_us"] for r in rows)
    for row in rows:
        row["self_pct"] = 100.0 * row["self_us"] / total_self if total_self else 0.0
    return rows


def sim_profile(report: "RunReport") -> List[Dict[str, Any]]:
    """Aggregate a run report's phases by name into simulated-cost rows."""
    totals: Dict[str, Dict[str, float]] = {}
    for phase in report.phases:
        row = totals.setdefault(
            phase.name,
            {"count": 0, "time_s": 0.0, "energy_j": 0.0, "dram_bytes": 0.0,
             "engine": phase.engine.value, "kind": phase.kind.value},
        )
        row["count"] += 1
        row["time_s"] += phase.time_s
        row["energy_j"] += phase.dynamic_energy_j
        row["dram_bytes"] += phase.memory.dram_bytes
    rows = [{"name": name, **row} for name, row in totals.items()]
    rows.sort(key=lambda r: r["time_s"], reverse=True)
    total_time = sum(r["time_s"] for r in rows)
    for row in rows:
        row["count"] = int(row["count"])
        row["time_pct"] = 100.0 * row["time_s"] / total_time if total_time else 0.0
    return rows


def render_wall_profile(rows: List[Dict[str, Any]]) -> str:
    """Text table for :func:`wall_profile` rows."""
    width = max([len(r["name"]) for r in rows] + [len("span")])
    lines = [
        f"{'span':{width}s} {'calls':>7s} {'total ms':>10s} {'self ms':>10s} {'self %':>7s}"
    ]
    for r in rows:
        lines.append(
            f"{r['name']:{width}s} {r['count']:7d} {r['total_us'] / 1e3:10.3f} "
            f"{r['self_us'] / 1e3:10.3f} {r['self_pct']:6.1f}%"
        )
    return "\n".join(lines)


def render_sim_profile(rows: List[Dict[str, Any]]) -> str:
    """Text table for :func:`sim_profile` rows."""
    width = max([len(r["name"]) for r in rows] + [len("phase")])
    lines = [
        f"{'phase':{width}s} {'engine':>6s} {'kind':>10s} {'calls':>7s} "
        f"{'sim ms':>10s} {'time %':>7s} {'energy mJ':>10s} {'DRAM MB':>9s}"
    ]
    for r in rows:
        lines.append(
            f"{r['name']:{width}s} {r['engine']:>6s} {r['kind']:>10s} {r['count']:7d} "
            f"{r['time_s'] * 1e3:10.3f} {r['time_pct']:6.1f}% "
            f"{r['energy_j'] * 1e3:10.3f} {r['dram_bytes'] / 1e6:9.2f}"
        )
    return "\n".join(lines)
