"""Tests for batched execution: the serve window and grouped sweeps.

The contract under test everywhere is *byte-identity*: a request
batched with any set of compatible neighbours must produce exactly the
bits it produces alone — pinned against a non-batching service handling
the same burst sequentially, and against the ungrouped sweep.
"""

import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.algorithms import clear_run_cache
from repro.errors import ServiceError, ServiceTimeoutError
from repro.request import RunRequest
from repro.serve import ServiceConfig, SimulationService, make_server
from repro.serve.batching import MicroBatcher, batch_compatibility_key

# ---------------------------------------------------------------------------
# The batching window's compatibility key
# ---------------------------------------------------------------------------


class TestRunBatch:
    def test_compatibility_key_excludes_mode(self):
        a = RunRequest.make("bfs", "delaunay", "TX1", "gpu")
        b = RunRequest.make("bfs", "delaunay", "TX1", "scu-enhanced")
        c = RunRequest.make("bfs", "human", "TX1", "gpu")
        assert batch_compatibility_key(a) == batch_compatibility_key(b)
        assert batch_compatibility_key(a) != batch_compatibility_key(c)


# ---------------------------------------------------------------------------
# MicroBatcher
# ---------------------------------------------------------------------------


def _request(dataset="delaunay", mode="gpu", algorithm="bfs"):
    return RunRequest.make(algorithm, dataset, "TX1", mode)


class TestMicroBatcher:
    def test_window_fuses_compatible_requests(self):
        executed = []

        def execute(members, opened):
            executed.append(len(members))
            for member in members:
                member.report = f"report-{member.request.mode.value}"

        batcher = MicroBatcher(window_s=0.5, max_size=8, execute=execute)
        results = {}

        def submit(mode):
            results[mode] = batcher.submit(_request(mode=mode), timeout_s=30.0)

        threads = [
            threading.Thread(target=submit, args=(mode,))
            for mode in ("gpu", "scu-basic")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert executed == [2]
        assert results["gpu"].report == "report-gpu"
        assert results["scu-basic"].report == "report-scu-basic"
        assert results["gpu"].size == results["scu-basic"].size == 2
        assert batcher.open_windows() == 0

    def test_full_batch_seals_before_window_expires(self):
        def execute(members, opened):
            for member in members:
                member.report = "r"

        batcher = MicroBatcher(window_s=60.0, max_size=2, execute=execute)
        done = []

        def submit():
            batcher.submit(_request(mode="gpu"), timeout_s=30.0)
            done.append(True)

        threads = [threading.Thread(target=submit) for _ in range(2)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert len(done) == 2  # did NOT wait the 60 s window
        assert time.perf_counter() - started < 30.0

    def test_execute_error_fails_every_member(self):
        def execute(members, opened):
            raise RuntimeError("boom")

        batcher = MicroBatcher(window_s=0.2, max_size=4, execute=execute)
        errors = []

        def submit():
            try:
                batcher.submit(_request(), timeout_s=5.0)
            except RuntimeError as error:
                errors.append(str(error))

        threads = [threading.Thread(target=submit) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == ["boom", "boom"]

    def test_max_size_one_executes_immediately(self):
        def execute(members, opened):
            members[0].report = "solo"

        batcher = MicroBatcher(window_s=60.0, max_size=1, execute=execute)
        started = time.perf_counter()
        member = batcher.submit(_request(), timeout_s=5.0)
        assert member.report == "solo"
        assert time.perf_counter() - started < 5.0  # no window wait
        assert batcher.open_windows() == 0

    def test_incompatible_keys_do_not_share_a_window(self):
        sizes = []

        def execute(members, opened):
            sizes.append(len(members))
            for member in members:
                member.report = "r"

        batcher = MicroBatcher(window_s=0.3, max_size=8, execute=execute)
        threads = [
            threading.Thread(
                target=batcher.submit,
                args=(_request(dataset=dataset),),
                kwargs={"timeout_s": 30.0},
            )
            for dataset in ("delaunay", "human")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(sizes) == [1, 1]

    def test_rejects_bad_window_and_size(self):
        with pytest.raises(ValueError):
            MicroBatcher(window_s=0.0, max_size=2, execute=lambda m, o: None)
        with pytest.raises(ValueError):
            MicroBatcher(window_s=0.1, max_size=0, execute=lambda m, o: None)


# ---------------------------------------------------------------------------
# The serve micro-batching window, end to end
# ---------------------------------------------------------------------------


def _post(base, body, timeout=120.0):
    request = urllib.request.Request(
        base + "/run", data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, response.read()


def _get(base, path, timeout=30.0):
    with urllib.request.urlopen(base + path, timeout=timeout) as response:
        return response.read().decode("utf-8")


def _start(service):
    httpd = make_server(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    return httpd, f"http://{host}:{port}"


def _burst_bodies():
    return [
        json.dumps(
            {"algorithm": "bfs", "dataset": "delaunay", "gpu": "TX1", "mode": mode}
        ).encode()
        for mode in ("gpu", "scu-basic", "scu-enhanced", "iru")
    ]


class TestServeBatching:
    def test_isolate_plus_batching_is_rejected(self):
        with pytest.raises(ServiceError):
            SimulationService(
                ServiceConfig(port=0, run_isolated=True, batch_window_ms=5.0)
            )

    def test_burst_fuses_and_stays_byte_identical(self):
        bodies = _burst_bodies()

        # Sequential ground truth from a non-batching service.
        clear_run_cache()
        plain = SimulationService(ServiceConfig(port=0))
        httpd, base = _start(plain)
        try:
            expected = [_post(base, body)[1] for body in bodies]
        finally:
            httpd.shutdown()
            httpd.server_close()
            plain.drain(timeout_s=10.0)

        clear_run_cache()
        service = SimulationService(
            ServiceConfig(port=0, workers=2, batch_window_ms=250.0, batch_max=8)
        )
        httpd, base = _start(service)
        try:
            results = [None] * len(bodies)

            def worker(index):
                results[index] = _post(base, bodies[index])

            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(len(bodies))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert [status for status, _ in results] == [200] * len(bodies)
            assert [payload for _, payload in results] == expected

            metrics = _get(base, "/metrics")
            assert "serve_batch_size_bucket" in metrics
            counters = {}
            for line in metrics.splitlines():
                for name in (
                    "serve_batch_requests",
                    "serve_batch_batches",
                    "serve_batch_fused_requests",
                ):
                    if line.startswith(name + " "):
                        counters[name] = float(line.split()[-1])
            assert counters["serve_batch_requests"] == 4.0
            # All four are compatible; they fuse into one or (under
            # scheduling jitter) a few batches, every fused member
            # counted.
            assert counters["serve_batch_batches"] >= 1.0
            assert counters["serve_batch_fused_requests"] >= 2.0

            journal = json.loads(_get(base, "/debug/requests"))
            outcomes = [row["outcome"] for row in journal["requests"]]
            assert outcomes.count("batched") >= 2
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.drain(timeout_s=10.0)
            clear_run_cache()

    def test_batch_spans_and_follower_links(self):
        bodies = _burst_bodies()
        clear_run_cache()
        service = SimulationService(
            ServiceConfig(port=0, workers=2, batch_window_ms=250.0, batch_max=8)
        )
        httpd, base = _start(service)
        try:
            threads = [
                threading.Thread(target=_post, args=(base, body))
                for body in bodies
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            batch_spans = []
            wait_spans = []
            for trace_id, _count in service.spans.trace_ids():
                for span in service.spans.get(trace_id):
                    if span.name == "serve.batch":
                        batch_spans.append(span)
                    elif span.name == "serve.batch_wait":
                        wait_spans.append(span)
            assert batch_spans, "no serve.batch span recorded"
            total_fused = sum(
                span.attributes["batch_size"]
                for span in batch_spans
                if span.attributes["batch_size"] > 1
            )
            assert total_fused >= 2
            assert wait_spans, "no serve.batch_wait follower spans"
            batch_ids = {(s.trace_id, s.span_id) for s in batch_spans}
            for span in wait_spans:
                assert span.links, "follower span lost its leader link"
                link = span.links[0]
                assert (link["trace_id"], link["span_id"]) in batch_ids
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.drain(timeout_s=10.0)
            clear_run_cache()

    def test_window_disabled_by_default(self):
        service = SimulationService(ServiceConfig(port=0))
        try:
            assert service._batcher is None
        finally:
            service.drain(timeout_s=5.0)


# ---------------------------------------------------------------------------
# Sweep-engine batching (repro bench --batch-datasets)
# ---------------------------------------------------------------------------


class TestSweepBatching:
    def test_grouped_sweep_is_byte_identical_in_grid_order(self):
        from repro.algorithms.common import SystemMode
        from repro.harness.parallel import SweepCell, sweep_cells

        cells = [
            SweepCell("bfs", dataset, "TX1", SystemMode(mode))
            for dataset in ("delaunay", "human")
            for mode in ("gpu", "scu-enhanced")
        ]
        from repro.serve import run_response

        plain = sweep_cells(cells, jobs=1)
        grouped = sweep_cells(cells, jobs=1, batch_datasets=True)
        assert [o.cell for o in grouped] == [o.cell for o in plain]
        for a, b in zip(plain, grouped):
            request = a.cell.request()
            assert run_response(request, a.payload.report) == run_response(
                request, b.payload.report
            )

    def test_grouped_sweep_matches_across_workers(self):
        from repro.algorithms.common import SystemMode
        from repro.harness.parallel import SweepCell, sweep_cells

        cells = [
            SweepCell("bfs", dataset, "TX1", SystemMode("gpu"))
            for dataset in ("delaunay", "human", "kron")
        ]
        from repro.serve import run_response

        inline = sweep_cells(cells, jobs=1, batch_datasets=True)
        forked = sweep_cells(cells, jobs=2, batch_datasets=True)
        for a, b in zip(inline, forked):
            request = a.cell.request()
            assert run_response(request, a.payload.report) == run_response(
                request, b.payload.report
            )


# ---------------------------------------------------------------------------
# Loadtest burst schedule
# ---------------------------------------------------------------------------


class TestBurstSchedule:
    def test_bursts_share_a_dataset(self):
        from repro.bench.loadtest import (
            LoadtestConfig,
            build_population,
            build_schedule,
        )

        config = LoadtestConfig(requests=64, burst_datasets=4)
        population = build_population(config)
        datasets = [request.dataset for request in population]
        schedule = build_schedule(config, len(population), datasets)
        assert schedule.size == 64
        for start in range(0, 64, 4):
            burst = {datasets[k] for k in schedule[start : start + 4]}
            assert len(burst) == 1

    def test_burst_schedule_is_deterministic(self):
        from repro.bench.loadtest import (
            LoadtestConfig,
            build_population,
            build_schedule,
        )

        config = LoadtestConfig(requests=50, burst_datasets=3, seed=7)
        population = build_population(config)
        datasets = [request.dataset for request in population]
        first = build_schedule(config, len(population), datasets)
        second = build_schedule(config, len(population), datasets)
        assert np.array_equal(first, second)

    def test_zero_burst_is_plain_zipf(self):
        from repro.bench.loadtest import (
            LoadtestConfig,
            build_population,
            build_schedule,
        )

        plain = LoadtestConfig(requests=40)
        burst0 = LoadtestConfig(requests=40, burst_datasets=0)
        population = build_population(plain)
        datasets = [request.dataset for request in population]
        assert np.array_equal(
            build_schedule(plain, len(population), datasets),
            build_schedule(burst0, len(population), datasets),
        )
