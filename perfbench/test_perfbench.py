"""Self-tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from types import ModuleType, SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import sweep  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from serve_load import Client  # noqa: E402


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


# -- inputs come from the seed alone -------------------------------------


def test_same_seed_same_inputs_and_other_seed_changes_them():
    for make in workloads.SWEEPS.values():
        assert make(7) == make(7)
        assert make(7) != make(8)
    a, b = workloads.serve_schedule(7, 2), workloads.serve_schedule(7, 2)
    assert a == b
    other = workloads.serve_schedule(8, 2)
    assert [r for _, r in other.sends] != [r for _, r in a.sends]
    assert other.population != a.population


def test_serve_schedule_shape():
    schedule = workloads.serve_schedule(3, 4)
    population = set(schedule.population)
    assert len(population) == workloads.POPULATION_SIZE
    sends = [request for _, request in schedule.sends]
    assert len(sends) == int(4 * workloads.OFFERED_RPS)
    fresh = [request for request in sends if request not in population]
    assert len(fresh) == len(set(fresh)) == len(sends) // workloads.FRESH_EVERY


# -- self-time arithmetic -------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_nested_two_thread_tree():
    clock = FakeClock()
    rec = tracing.Recorder(clock=clock)
    root = rec.open("A")
    clock.now = 1.0
    child = rec.open("B")
    clock.now = 3.0
    rec.close(child)

    def worker(request):
        rec.adopt(request)
        clock.now = 3.5
        outer = rec.open("W")
        clock.now = 4.0
        inner = rec.open("X")
        clock.now = 6.0
        rec.close(inner)
        clock.now = 7.0
        rec.close(outer)
        rec.adopt(None)

    thread = threading.Thread(target=worker, args=(rec.request,))
    thread.start()
    thread.join(10)
    assert not thread.is_alive()
    clock.now = 8.0
    last = rec.open("C")
    clock.now = 9.0
    rec.close(last)
    clock.now = 10.0
    rec.close(root)

    assert rec.self_s == pytest.approx({"A": 7.0, "B": 2.0, "W": 1.5, "X": 2.0, "C": 1.0})
    assert rec.calls == {"A": 1, "B": 1, "W": 1, "X": 1, "C": 1}
    # Only the request's own root counts as wall: W continued it.
    assert rec.counters[tracing.WALL] == pytest.approx(10.0)
    assert {record[5] for record in rec.records} == {root.ident}
    offline = tracing.fold(rec.records)
    assert {name: v[0] for name, v in offline.items()} == pytest.approx(rec.self_s)


def test_out_of_order_close_is_an_error():
    rec = tracing.Recorder()
    outer = rec.open("outer")
    rec.open("inner")
    with pytest.raises(RuntimeError):
        rec.close(outer)


# -- wrappers -------------------------------------------------------------

ZERO = {name: 0.0 for name, _, _ in layers.FROM_PLAIN}


def test_missing_target_is_reported_not_fatal():
    rec = tracing.Recorder()
    targets = (
        ("mem.locality.profile", "repro.mem.hierarchy:no_such_function"),
        ("gone", "repro.no_such_module:anything"),
        ("graph.load", "repro.algorithms.runner:load_dataset"),
    )
    from repro.algorithms import runner

    original = runner.load_dataset
    uninstall = tracing.install(rec, targets)
    try:
        assert len(rec.missing) == 2
        assert runner.load_dataset is not original
        runner.load_dataset("human", seed=42)
    finally:
        uninstall()
    assert runner.load_dataset is original
    assert rec.calls == {"graph.load": 1}
    trace = {"self_s": rec.self_s, "total_s": rec.total_s, "calls": rec.calls,
             "counters": rec.counters, "missing": rec.missing}
    metrics = layers.per_layer({"trace": trace}, ZERO)
    assert metrics["trace.missing"] == 2
    table = layers.layer_table(metrics, trace)
    assert "mem.locality.profile_s" in table
    line = next(row for row in table.splitlines() if row.startswith("mem.locality.profile_s"))
    assert "[missing]" in line


def _trace_one_request(targets):
    """Trace one real sweep request with ``targets`` installed."""
    from repro.algorithms import runner

    execute = runner.execute_request
    request = workloads.RunRequest.make("bfs", "human", "TX1", "scu-enhanced", seed=42)
    rec = tracing.Recorder()
    uninstall = tracing.install(rec, targets)
    try:
        rec.span(tracing.ROOT, execute, request)
    finally:
        uninstall()
    trace = tracing.snapshot(rec)
    return trace, layers.per_layer({"trace": trace}, ZERO)


def _moved(targets, name, location):
    """``targets`` with every ``name`` entry pointed at ``location``."""
    return tuple((n, location if n == name else loc) for n, loc in targets)


def test_vanished_profile_lines_is_tagged_missing():
    _, full = _trace_one_request(tracing.TARGETS)
    assert full["trace.missing"] == 0
    gone = _moved(tracing.TARGETS, "mem.locality.profile", "repro.mem.hierarchy:no_such_name")
    trace, metrics = _trace_one_request(gone)
    assert metrics["trace.missing"] == 1
    assert metrics["mem.locality.profile_s"] == 0.0
    line = next(row for row in layers.layer_table(metrics, trace).splitlines()
                if row.startswith("mem.locality.profile_s"))
    assert "[missing]" in line
    # Its time falls to its caller, mem.hierarchy, which is still a layer:
    # coverage holds.  Only a target called from the root span lowers it.
    assert abs(metrics["trace.coverage"] - full["trace.coverage"]) < 0.02
    no_algorithms = _moved(tracing.TARGETS, "algorithms", "repro.algorithms.runner:GONE[x]")
    _, metrics = _trace_one_request(no_algorithms)
    assert metrics["trace.missing"] == 3
    assert metrics["trace.coverage"] < full["trace.coverage"] - full["algorithms.self_s"] / (
        2 * full[tracing.WALL])


def test_counter_hook_that_raises_leaves_the_program_alone(monkeypatch):
    # A target whose shape changed: the mem.hierarchy counts read
    # ``args[1].transactions``, which an int does not have.
    fake = ModuleType("perfbench_changed_target")
    fake.process = lambda self, stream: ("result", stream)
    monkeypatch.setitem(sys.modules, fake.__name__, fake)
    rec = tracing.Recorder()
    uninstall = tracing.install(rec, (("mem.hierarchy", f"{fake.__name__}:process"),))
    try:
        assert fake.process(None, 5) == ("result", 5)
        assert fake.process(None, 6) == ("result", 6)
    finally:
        uninstall()
    assert rec.calls == {"mem.hierarchy": 2}
    assert rec.missing == [
        "mem.hierarchy counters (AttributeError: 'int' object has no attribute 'transactions')"
    ]
    metrics = layers.per_layer({"trace": tracing.snapshot(rec)}, ZERO)
    table = layers.layer_table(metrics, tracing.snapshot(rec))
    tagged = [row.split()[0] for row in table.splitlines() if row.endswith("[missing]")]
    assert tagged == ["mem.hierarchy.tx_per_call", "mem.hierarchy.repeat_share"]


def test_raising_hooks_do_not_change_outputs_or_failures(monkeypatch):
    counts = tracing._counts

    def broken(recorder):
        def boom(args, kwargs, result):
            raise AttributeError("call shape changed")

        return {name: boom for name in counts(recorder)}

    requests = [workloads.RunRequest.make("bfs", "human", "TX1", mode, seed=42)
                for mode in ("iru", "scu-enhanced")]
    from repro.algorithms.runner import execute_request

    calibration = calibrate.Calibration()
    plain = sweep._window(
        0.0, requests, lambda req: (execute_request(req), 0.0), oracle, calibration
    )
    monkeypatch.setattr(tracing, "_counts", broken)
    rec = tracing.Recorder()
    uninstall = tracing.install(rec)
    try:
        traced = sweep._window(
            0.0, requests, lambda req: (rec.span(tracing.ROOT, execute_request, req), 0.0),
            oracle, calibration,
        )
    finally:
        uninstall()
    assert traced["failed"] == plain["failed"] == 0
    assert traced["sims"] == plain["sims"]
    # Every hook a sweep reaches turned itself off (serve.cache is not reached).
    assert {entry.split(" (")[0] for entry in rec.missing} == {
        "mem.hierarchy counters", "mem.coalesce_warp counters",
        "mem.coalesce_stream counters", "backends.iru.intercept counters",
    }


def test_every_target_resolves_at_this_commit():
    for name, location in tracing.TARGETS:
        assert tracing._resolve(location) is not None, (name, location)


# -- failures raise error_ratio ------------------------------------------


def test_doctored_baseline_row_fails_every_call_of_that_request():
    request = workloads.RunRequest.make("bfs", "human", "TX1", "gpu", seed=42)
    rows = dict(oracle.baseline_rows())
    key = ("bfs", "human", "TX1", "gpu")
    rows[key] = dict(rows[key], mem_transactions=rows[key]["mem_transactions"] + 1)
    doctored = SimpleNamespace(
        check_result=oracle.check_result,
        same_array=oracle.same_array,
        check_baseline=lambda req, sim: oracle.check_baseline(req, sim, rows=rows),
    )
    from repro.algorithms.runner import execute_request

    def timed(req):
        return execute_request(req), 0.0

    calibration = calibrate.Calibration()
    honest = sweep._window(0.0, [request], timed, oracle, calibration)
    assert honest["failed"] == 0
    result = sweep._window(0.0, [request], timed, doctored, calibration)
    assert result["attempted"] == 1 and result["failed"] == 1
    assert "mem_transactions" in result["failures"][0]


class _Refuse(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 — http.server API
        self.rfile.read(int(self.headers.get("Content-Length", "0")))
        self.send_response(429)
        self.send_header("Content-Length", "2")
        self.end_headers()
        self.wfile.write(b"{}")

    def log_message(self, *args):
        pass


def test_non_200_response_counts_as_failed():
    server = HTTPServer(("127.0.0.1", 0), _Refuse)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = Client(server.server_address[1])
        request = workloads.RunRequest.make("bfs", "cond", "TX1", "gpu", seed=1, source=3)
        assert client.post(request) is False
    finally:
        server.shutdown()
        server.server_close()
        thread.join(10)
    assert client.attempted == 1 and len(client.failures) == 1
    assert "HTTP 429" in client.failures[0]
    run = {"window": {"latencies": [None, 0.001], "daemon_cpu_s": 1.0}, "setup_s": 1.0,
           "calibration": [calibrate.REFERENCE_S],
           "peak_rss_mb": 1.0}
    assert layers.serve_end_to_end(run)["p99_ms"] == layers.FAILED_LATENCY_S * 1e3


# -- host-speed calibration ------------------------------------------------


def test_timings_are_scaled_to_reference_host_speed():
    ref = calibrate.REFERENCE_S
    # The set-up ran at half the reference speed, the window at a third.
    run = {"setup_s": 2.0, "setup_calibration": [2 * ref, 2 * ref, 5 * ref],
           "samples": {"a": [1.0, 3.0, 2.0], "b": [4.0]},
           "calibration": [ref, 3 * ref, 3 * ref], "peak_rss_mb": 5.0}
    metrics = layers.sweep_end_to_end(run)
    assert metrics["setup_s"] == pytest.approx(1.0)
    assert metrics["sweep_s"] == pytest.approx((2.0 + 4.0) / 3)
    assert metrics["p50_ms"] == pytest.approx(1e3)
    assert metrics["peak_rss_mb"] == 5.0
    serve = {"setup_s": 9.0, "window": {"latencies": [0.004, None, 0.002], "daemon_cpu_s": 6.0},
             "calibration": [3 * ref, 3 * ref, ref], "peak_rss_mb": 5.0}
    metrics = layers.serve_end_to_end(serve)
    assert metrics["setup_s"] == pytest.approx(3.0)
    assert metrics["sweep_s"] == pytest.approx(2.0)
    assert metrics["p50_ms"] == pytest.approx(4.0 / 3)
    # A failed request stays at the failure latency, whatever the speed.
    assert metrics["p99_ms"] == layers.FAILED_LATENCY_S * 1e3


def test_window_times_one_calibration_slice_per_request_outside_its_timing():
    from repro.algorithms.runner import execute_request

    calls, ticks = [], []

    class Counting(calibrate.Calibration):
        def slice(self):
            ticks.append(len(calls))
            return super().slice()

    def timed(req):
        calls.append(req)
        if len(calls) == 2:
            raise ValueError("fails once")
        return execute_request(req), 0.5

    requests = [workloads.RunRequest.make("bfs", "human", "TX1", mode, seed=42)
                for mode in ("gpu", "scu-basic", "iru")]
    result = sweep._window(0.0, requests, timed, oracle, Counting())
    # A slice after every call, the failed one included, never inside one.
    assert ticks == [1, 2, 3]
    assert len(result["calibration"]) == result["attempted"] == 3
    assert result["failed"] == 1


# -- the spec and the code agree -----------------------------------------


def test_benchmark_json_matches_the_metric_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert spec["per_layer"] == layers.spec_entries()
    slices = [calibrate.REFERENCE_S]
    run = {"setup_s": 1.0, "setup_calibration": slices, "samples": {"a": [1.0, 2.0], "b": [3.0]},
           "calibration": slices, "peak_rss_mb": 1.0}
    names = {entry["name"] for entry in spec["end_to_end"]}
    assert set(layers.sweep_end_to_end(run)) == names
    serve = {"window": {"latencies": [0.1], "daemon_cpu_s": 1.0}, "setup_s": 1.0,
             "calibration": slices,
             "peak_rss_mb": 1.0}
    assert set(layers.serve_end_to_end(serve)) == names
    assert [w["name"] for w in spec["workloads"]] == list(layers.WORKLOADS)
