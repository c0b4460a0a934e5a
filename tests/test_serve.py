"""Tests for the simulation service (repro.serve).

Unit-level: single-flight coalescing and the bounded admission queue.
Integration-level: the HTTP surface end to end — the A/B contract that
a served report is byte-identical to an in-process run, the acceptance
scenario that eight concurrent identical cold requests simulate exactly
once, deterministic overflow/timeout/validation failures, and
drain-on-shutdown.
"""

import http.client
import json
import socket
import statistics
import struct
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.algorithms import clear_run_cache, execute_request, runner
from repro.algorithms.common import SystemMode
from repro.errors import (
    ServiceOverloadError,
    ServiceTimeoutError,
    ServiceUnavailableError,
)
from repro.obs import MetricsRegistry
from repro.request import RunRequest
from repro.serve import (
    COALESCED_METRIC,
    REJECTED_METRIC,
    SIMULATIONS_METRIC,
    ServiceConfig,
    ServiceQueue,
    SimulationService,
    SingleFlight,
    encode,
    make_server,
    run_response,
)
from repro.serve.server import (
    READ_TIMEOUT_S,
    RESPONSE_CACHE_METRIC,
    RequestHandler,
    ServiceServer,
)

REQUEST_BODY = json.dumps(
    {"algorithm": "bfs", "dataset": "human", "gpu": "TX1", "mode": "scu-enhanced"}
).encode()


# ---------------------------------------------------------------------------
# SingleFlight
# ---------------------------------------------------------------------------


class TestSingleFlight:
    def test_single_caller_executes(self):
        flight = SingleFlight()
        assert flight.do("k", lambda: 41 + 1) == 42

    def test_concurrent_identical_keys_execute_once(self):
        flight = SingleFlight(registry=MetricsRegistry())
        release = threading.Event()
        calls = []

        def work():
            calls.append(None)
            release.wait(10.0)
            return "report"

        results = [None] * 4

        def runner(i):
            results[i] = flight.do("k", work)

        threads = [threading.Thread(target=runner, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        # wait for the followers to attach, then let the leader finish
        deadline = time.time() + 10.0
        while flight.waiters("k") < 3 and time.time() < deadline:
            time.sleep(0.01)
        assert flight.waiters("k") == 3
        release.set()
        for t in threads:
            t.join(10.0)
        assert len(calls) == 1
        assert results == ["report"] * 4
        assert flight._registry.counter(COALESCED_METRIC).total() == 3

    def test_distinct_keys_do_not_coalesce(self):
        flight = SingleFlight()
        assert flight.do("a", lambda: 1) == 1
        assert flight.do("b", lambda: 2) == 2
        assert flight.waiters("a") == 0

    def test_leader_exception_is_shared(self):
        flight = SingleFlight()
        release = threading.Event()
        errors = []

        def work():
            release.wait(10.0)
            raise ValueError("boom")

        def leader():
            try:
                flight.do("k", work)
            except ValueError as error:
                errors.append(error)

        def follower():
            try:
                flight.do("k", work, timeout_s=10.0)
            except ValueError as error:
                errors.append(error)

        t1 = threading.Thread(target=leader)
        t1.start()
        while flight._calls.get("k") is None:
            time.sleep(0.01)
        t2 = threading.Thread(target=follower)
        t2.start()
        while flight.waiters("k") < 1:
            time.sleep(0.01)
        release.set()
        t1.join(10.0)
        t2.join(10.0)
        assert len(errors) == 2
        assert all(str(e) == "boom" for e in errors)

    def test_follower_timeout(self):
        flight = SingleFlight()
        release = threading.Event()
        leader = threading.Thread(
            target=lambda: flight.do("k", lambda: release.wait(10.0))
        )
        leader.start()
        while flight._calls.get("k") is None:
            time.sleep(0.01)
        with pytest.raises(ServiceTimeoutError):
            flight.do("k", lambda: None, timeout_s=0.05)
        release.set()
        leader.join(10.0)


# ---------------------------------------------------------------------------
# ServiceQueue
# ---------------------------------------------------------------------------


class TestServiceQueue:
    def test_run_returns_result(self):
        queue = ServiceQueue(workers=1, queue_depth=2)
        assert queue.run(lambda: 7) == 7
        assert queue.drain(timeout_s=5.0)

    def test_worker_exception_propagates(self):
        queue = ServiceQueue(workers=1, queue_depth=2)
        with pytest.raises(ValueError, match="boom"):
            queue.run(lambda: (_ for _ in ()).throw(ValueError("boom")))
        queue.drain(timeout_s=5.0)

    def test_overflow_rejects_deterministically(self):
        queue = ServiceQueue(workers=1, queue_depth=1, retry_after_s=2.5)
        release = threading.Event()
        queue.submit(lambda: release.wait(10.0))  # occupies the worker
        deadline = time.time() + 10.0
        while queue.inflight < 1 and time.time() < deadline:
            time.sleep(0.01)
        queue.submit(lambda: None)  # fills the single queue slot
        with pytest.raises(ServiceOverloadError) as excinfo:
            queue.submit(lambda: None)
        assert excinfo.value.retry_after_s == 2.5
        assert "admission queue full (1 waiting, limit 1)" in str(excinfo.value)
        release.set()
        assert queue.drain(timeout_s=10.0)

    def test_run_timeout(self):
        queue = ServiceQueue(workers=1, queue_depth=2)
        release = threading.Event()
        with pytest.raises(ServiceTimeoutError):
            queue.run(lambda: release.wait(10.0), timeout_s=0.05)
        release.set()
        assert queue.drain(timeout_s=10.0)

    def test_drain_refuses_new_work_and_finishes_old(self):
        queue = ServiceQueue(workers=1, queue_depth=4)
        release = threading.Event()
        done = []
        queue.submit(lambda: (release.wait(10.0), done.append(1)))
        drained = []
        drainer = threading.Thread(
            target=lambda: drained.append(queue.drain(timeout_s=10.0))
        )
        drainer.start()
        time.sleep(0.05)
        with pytest.raises(ServiceUnavailableError):
            queue.submit(lambda: None)
        release.set()
        drainer.join(10.0)
        assert drained == [True]
        assert done == [1]

    def test_drain_timeout_returns_false(self):
        queue = ServiceQueue(workers=1, queue_depth=2)
        release = threading.Event()
        queue.submit(lambda: release.wait(10.0))
        assert queue.drain(timeout_s=0.05) is False
        release.set()

    def test_gauges_track_depth_and_inflight(self):
        registry = MetricsRegistry()
        queue = ServiceQueue(workers=1, queue_depth=4, registry=registry)
        queue.run(lambda: None)
        assert registry.gauge("serve.queue.depth").value() == 0.0
        assert registry.gauge("serve.inflight").value() == 0.0
        queue.drain(timeout_s=5.0)


# ---------------------------------------------------------------------------
# HTTP integration
# ---------------------------------------------------------------------------


class GatedService(SimulationService):
    """Service whose simulations block until the test releases them."""

    def __init__(self, config=None):
        super().__init__(config)
        self.release = threading.Event()

    def _simulate(self, request, ctx):
        self.release.wait(30.0)
        return super()._simulate(request, ctx)


class CoalescingGatedService(SimulationService):
    """First simulation waits for ``expected`` coalesced followers.

    This makes the eight-concurrent-requests acceptance test
    deterministic: the leader's simulation cannot finish before the
    other seven requests have attached to it, so no request can ever
    slip through on the run-cache fast path instead of coalescing.
    """

    expected = 7

    def _simulate(self, request, ctx):
        deadline = time.time() + 30.0
        while time.time() < deadline:
            if self.registry.counter(COALESCED_METRIC).total() >= self.expected:
                break
            time.sleep(0.005)
        return super()._simulate(request, ctx)


def _post(base, body, timeout=60.0):
    request = urllib.request.Request(
        base + "/run", data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, response.read()


def _post_concurrently(base, bodies, timeout_s=120.0):
    """POST every body at once, one thread each; their (status, body)."""
    results = [None] * len(bodies)

    def send(index):
        results[index] = _post(base, bodies[index])

    threads = [
        threading.Thread(target=send, args=(index,)) for index in range(len(bodies))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout_s)
    assert not any(thread.is_alive() for thread in threads)
    return results


def _start(service):
    httpd = make_server(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    return httpd, f"http://{host}:{port}"


def _stop(service, httpd):
    httpd.shutdown()
    httpd.server_close()
    service.drain(timeout_s=10.0)
    service.close()


def _run_body(mode="scu-enhanced", **kwargs):
    payload = {"algorithm": "bfs", "dataset": "human", "gpu": "TX1", "mode": mode}
    return json.dumps({**payload, **kwargs}).encode()


def post_with_content_length(base, value, timeout=5.0):
    """``POST /run`` announcing ``Content-Length: value``, with no body.

    Reads until the server closes the connection, so a server that
    keeps it open fails by the client's timeout.  Returns the seconds
    until the close, the status code and the JSON body.
    """
    url = urllib.parse.urlsplit(base)
    started = time.perf_counter()
    with socket.create_connection((url.hostname, url.port), timeout=timeout) as client:
        client.sendall(
            b"POST /run HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n"
            + f"Content-Length: {value}\r\n\r\n".encode()
        )
        received = b""
        while chunk := client.recv(65536):
            received += chunk
    seconds = time.perf_counter() - started
    head, _, body = received.partition(b"\r\n\r\n")
    return seconds, int(head.split()[1]), json.loads(body)


#: ``Content-Length`` values that are not a decimal count, though
#: ``int()`` takes all but ``abc``.  ``-1`` once meant "read to the end
#: of the stream".
MALFORMED_LENGTHS = ("-5", "abc", "-1", "+5", "1_0")


def keep_alive_median_s(base, path="/healthz", count=20):
    """Median round trip of ``count`` GETs sent on one reused connection."""
    url = urllib.parse.urlsplit(base)
    connection = http.client.HTTPConnection(url.hostname, url.port, timeout=10.0)
    samples = []
    try:
        for _ in range(count):
            started = time.perf_counter()
            connection.request("GET", path)
            response = connection.getresponse()
            response.read()
            assert response.status == 200
            samples.append(time.perf_counter() - started)
    finally:
        connection.close()
    return statistics.median(samples)


def unknown_post_then_health(base):
    """``POST /nope`` with a JSON body, then ``GET /healthz``, both on
    one keep-alive connection: (404 status, health status, health body)."""
    url = urllib.parse.urlsplit(base)
    connection = http.client.HTTPConnection(url.hostname, url.port, timeout=10.0)
    try:
        connection.request(
            "POST", "/nope", body=REQUEST_BODY,
            headers={"Content-Type": "application/json"},
        )
        missing = connection.getresponse()
        missing.read()
        connection.request("GET", "/healthz")
        health = connection.getresponse()
        return missing.status, health.status, health.read()
    finally:
        connection.close()


@pytest.fixture
def served():
    """A running service on a free port, torn down afterwards."""
    clear_run_cache()
    service = SimulationService(ServiceConfig(port=0))
    httpd, base = _start(service)
    yield service, base
    httpd.shutdown()
    httpd.server_close()
    service.drain(timeout_s=10.0)
    clear_run_cache()


class TestHttpService:
    def test_served_report_matches_in_process_run(self, served):
        service, base = served
        status, body = _post(base, REQUEST_BODY)
        assert status == 200
        request = RunRequest.make("bfs", "human", "TX1", "scu-enhanced")
        local = execute_request(request).report
        assert body == encode(run_response(request, local))

    def test_repeat_request_is_a_cache_hit(self, served):
        service, base = served
        _, first = _post(base, REQUEST_BODY)
        _, second = _post(base, REQUEST_BODY)
        assert first == second
        assert service.registry.counter(SIMULATIONS_METRIC).total() == 1

    def test_leader_served_by_its_reprobe_is_journaled_cached(
        self, served, monkeypatch
    ):
        # The handler's probe misses, as if another leader stored the
        # report just after it; the worker's re-probe then finds it.
        service, base = served
        request = RunRequest.make("bfs", "human", "TX1", "scu-enhanced")
        report = execute_request(request).report
        runner.put_cached_report(request, report)
        get_cached_report = runner.get_cached_report

        def probe_misses(request, *, with_tier=False):
            if with_tier:
                return None, None
            return get_cached_report(request)

        monkeypatch.setattr(runner, "get_cached_report", probe_misses)
        status, body = _post(base, REQUEST_BODY)
        assert status == 200
        assert body == encode(run_response(request, report))
        assert [r["outcome"] for r in service.journal.tail(None)] == ["cached"]
        assert service.registry.counter(SIMULATIONS_METRIC).total() == 0

    def test_healthz(self, served):
        _, base = served
        with urllib.request.urlopen(base + "/healthz", timeout=10.0) as response:
            payload = json.loads(response.read())
        assert payload["status"] == "ok"
        assert payload["workers"] == 2
        assert payload["queue_capacity"] == 8

    def test_keep_alive_responses_do_not_wait_for_a_delayed_ack(self, served):
        # A head and body written in two sends leave the body to Nagle,
        # which holds it for the client's delayed ACK (~40 ms) whenever
        # the connection is reused.
        _, base = served
        assert keep_alive_median_s(base) < 0.020

    def test_metrics_exposition(self, served):
        _, base = served
        _post(base, REQUEST_BODY)
        with urllib.request.urlopen(base + "/metrics", timeout=10.0) as response:
            text = response.read().decode()
        lines = text.splitlines()
        assert 'serve_requests{route="run"} 1.0' in lines
        assert "serve_simulations 1.0" in lines
        assert "# TYPE serve_simulations counter" in lines
        assert any(line.startswith("runner_cache") for line in lines)

    def test_unknown_route_is_404(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(base + "/nope", timeout=10.0)
        assert excinfo.value.code == 404

    def test_unknown_post_body_is_not_read_as_the_next_request(self, served):
        _, base = served
        missing, status, body = unknown_post_then_health(base)
        assert (missing, status) == (404, 200)
        assert json.loads(body)["status"] == "ok"

    def test_invalid_request_is_400(self, served):
        _, base = served
        bad = json.dumps({"algorithm": "zork"}).encode()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, bad)
        assert excinfo.value.code == 400
        payload = json.loads(excinfo.value.read())
        assert payload["error"] == "bad-request"

    def test_malformed_json_is_400(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, b"{not json")
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("length", MALFORMED_LENGTHS)
    def test_malformed_content_length_is_400_and_closes(self, served, length):
        service, base = served
        seconds, status, payload = post_with_content_length(base, length)
        assert (status, payload["error"]) == (400, "bad-request")
        assert payload["message"] == f"malformed Content-Length {length!r}"
        assert seconds < READ_TIMEOUT_S / 4  # not answered by the read timeout
        assert [r["outcome"] for r in service.journal.tail(None)] == ["bad-request"]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_kwargs_are_400(self, served, value):
        service, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, _run_body(kwargs={"source": value}))
        assert excinfo.value.code == 400
        payload = json.loads(excinfo.value.read())
        assert payload["error"] == "bad-request"
        assert payload["message"].startswith("kwargs['source'] must be a finite number")
        assert [r["outcome"] for r in service.journal.tail(None)] == ["bad-request"]

    def test_kwargs_the_driver_rejects_are_answered_500(self, served):
        """A driver's own error is a 500 ``internal`` with the request id,
        and the keep-alive connection stays usable after it."""
        service, base = served
        url = urllib.parse.urlsplit(base)
        connection = http.client.HTTPConnection(url.hostname, url.port, timeout=60.0)
        answers = []
        try:
            for kwargs in ({"bogus": 1}, {"source": 1_000_000_000}):
                connection.request(
                    "POST", "/run", body=_run_body(kwargs=kwargs),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                answers.append(
                    (
                        response.status,
                        json.loads(response.read())["error"],
                        response.getheader("X-Request-Id"),
                    )
                )
            connection.request("GET", "/healthz")
            health = connection.getresponse()
            assert (health.status, json.loads(health.read())["status"]) == (200, "ok")
        finally:
            connection.close()
        assert answers == [
            (500, "internal", "req-000001"),
            (500, "internal", "req-000002"),
        ]
        journal = [(r["outcome"], r["status"]) for r in service.journal.tail(None)]
        assert journal == [("error", 500), ("error", 500)]

    def test_an_int_run_does_not_answer_for_its_float_twin(self, served):
        """``1`` and ``1.0`` are two runs: ``{"source": 1.0}`` gets the
        same answer whether or not ``{"source": 1}`` ran first."""
        _, base = served

        def answer(source):
            try:
                status, body = _post(base, _run_body(kwargs={"source": source}))
            except urllib.error.HTTPError as error:
                status, body = error.code, error.read()
            return status, json.loads(body)

        before = answer(1.0)
        assert answer(1)[0] == 200
        assert answer(1.0) == before
        assert (before[0], before[1]["error"]) == (500, "internal")


class TestCoalescing:
    def test_eight_concurrent_identical_requests_simulate_once(self):
        """The acceptance scenario: 8 cold identical requests -> 1 sim."""
        clear_run_cache()
        service = CoalescingGatedService(ServiceConfig(port=0))
        httpd, base = _start(service)
        try:
            results = [None] * 8
            errors = []

            def worker(i):
                try:
                    results[i] = _post(base, REQUEST_BODY)
                except Exception as error:  # pragma: no cover - diagnostics
                    errors.append(error)

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
            assert not errors
            statuses = {status for status, _ in results}
            bodies = {body for _, body in results}
            assert statuses == {200}
            assert len(bodies) == 1  # byte-identical payloads
            assert service.registry.counter(SIMULATIONS_METRIC).total() == 1
            assert service.registry.counter(COALESCED_METRIC).total() == 7
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.drain(timeout_s=10.0)
            clear_run_cache()


class TestResponseMemo:
    """Each run's response is encoded once and served as bytes after."""

    @staticmethod
    def _memo(service):
        return {
            event: service.registry.counter(f"{RESPONSE_CACHE_METRIC}.{event}").total()
            for event in ("hits", "misses", "evictions")
        }

    def test_repeat_request_is_not_encoded_again(self, served, monkeypatch):
        service, base = served
        _, first = _post(base, REQUEST_BODY)

        def refuse(*args, **kwargs):
            raise AssertionError("a memoized response was encoded again")

        monkeypatch.setattr("repro.serve.server.run_response", refuse)
        monkeypatch.setattr("repro.serve.server.encode", refuse)
        assert _post(base, REQUEST_BODY) == (200, first)
        assert self._memo(service) == {"hits": 1, "misses": 1, "evictions": 0}

    def test_burst_of_identical_cold_requests_encodes_once(self, monkeypatch):
        encoded = []
        original = run_response

        def counted(request, report):
            encoded.append(request)
            return original(request, report)

        monkeypatch.setattr("repro.serve.server.run_response", counted)
        clear_run_cache()
        service = CoalescingGatedService(ServiceConfig(port=0))
        httpd, base = _start(service)
        try:
            results = _post_concurrently(base, [REQUEST_BODY] * 8)
            assert {status for status, _ in results} == {200}
            assert len({body for _, body in results}) == 1
            assert service.registry.counter(SIMULATIONS_METRIC).total() == 1
            assert service.registry.counter(COALESCED_METRIC).total() == 7
            assert len(encoded) == 1
        finally:
            _stop(service, httpd)
            clear_run_cache()

    def test_evicted_bodies_are_encoded_again_identically(self, monkeypatch, tmp_path):
        # The memo is bounded by RUN_CACHE_SIZE; two keeps this test to
        # three simulations.  The L1 run cache keeps its own size.
        monkeypatch.setattr(runner, "RUN_CACHE_SIZE", 2)
        clear_run_cache()
        service = SimulationService(ServiceConfig(port=0, store_dir=str(tmp_path)))
        httpd, base = _start(service)
        try:
            bodies = [_run_body(mode) for mode in ("gpu", "scu-basic", "scu-enhanced")]
            first = [_post(base, body)[1] for body in bodies]
            assert self._memo(service) == {"hits": 0, "misses": 3, "evictions": 1}
            # The first body was evicted; its report is still in L1.
            assert _post(base, bodies[0]) == (200, first[0])
            # That evicted the second body; with L1 emptied it comes from L2.
            clear_run_cache()
            assert _post(base, bodies[1]) == (200, first[1])
            assert self._memo(service) == {"hits": 0, "misses": 5, "evictions": 3}
            assert service.registry.counter(SIMULATIONS_METRIC).total() == 3
            assert [r["outcome"] for r in service.journal.tail(None)] == [
                "simulated", "simulated", "simulated", "cached", "cached",
            ]
        finally:
            _stop(service, httpd)
            clear_run_cache()

    def test_memo_hits_keep_outcomes_store_spans_and_simulations(self, tmp_path):
        clear_run_cache()
        service = SimulationService(ServiceConfig(port=0, store_dir=str(tmp_path)))
        httpd, base = _start(service)
        try:
            _, cold = _post(base, REQUEST_BODY)
            assert _post(base, REQUEST_BODY) == (200, cold)  # L1 hit
            clear_run_cache()  # the memo still holds the body
            status, warm, headers = _post_traced(base, REQUEST_BODY, None)
            assert (status, warm) == (200, cold)  # L2 hit
            assert [r["outcome"] for r in service.journal.tail(None)] == [
                "simulated", "cached", "cached",
            ]
            spans = _get_trace(base, headers["X-Trace-Id"])["spans"]
            assert [
                span["attributes"]["tier"]
                for span in spans
                if span["name"] == "serve.store.get"
            ] == ["l2"]
            assert service.registry.counter(SIMULATIONS_METRIC).total() == 1
            with urllib.request.urlopen(base + "/metrics", timeout=10.0) as response:
                lines = response.read().decode().splitlines()
            assert "serve_response_cache_hits 2.0" in lines
            assert "serve_response_cache_misses 1.0" in lines
            assert "serve_store_hits 1.0" in lines
        finally:
            _stop(service, httpd)
            clear_run_cache()


class TestOverloadAndTimeout:
    def _distinct_body(self, dataset):
        return json.dumps(
            {"algorithm": "bfs", "dataset": dataset, "gpu": "TX1", "mode": "gpu"}
        ).encode()

    def test_queue_overflow_is_a_deterministic_429(self):
        clear_run_cache()
        service = GatedService(
            ServiceConfig(port=0, workers=1, queue_depth=1, retry_after_s=3.0)
        )
        httpd, base = _start(service)
        try:
            # Fill the worker, then the one queue slot — sequenced, because
            # a submitted task counts against the admission bound until a
            # worker picks it up, so firing both at once can 429 the second.
            background = []

            def _occupy(dataset, predicate):
                thread = threading.Thread(
                    target=lambda: _post(base, self._distinct_body(dataset))
                )
                thread.start()
                background.append(thread)
                deadline = time.time() + 10.0
                while not predicate() and time.time() < deadline:
                    time.sleep(0.01)
                assert predicate()

            _occupy("human", lambda: service._queue.inflight == 1)
            _occupy("delaunay", lambda: service._queue.depth == 1)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(base, self._distinct_body("kron"))
            assert excinfo.value.code == 429
            assert excinfo.value.headers["Retry-After"] == "3"
            payload = json.loads(excinfo.value.read())
            assert payload == {
                "error": "overloaded",
                "message": "admission queue full (1 waiting, limit 1)",
                "retry_after_s": 3.0,
                "status": 429,
            }
            service.release.set()
            for thread in background:
                thread.join(60.0)
        finally:
            service.release.set()
            httpd.shutdown()
            httpd.server_close()
            service.drain(timeout_s=10.0)
            clear_run_cache()

    def test_slow_request_is_a_504(self):
        clear_run_cache()
        service = GatedService(ServiceConfig(port=0, request_timeout_s=0.2))
        httpd, base = _start(service)
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(base, REQUEST_BODY)
            assert excinfo.value.code == 504
            assert json.loads(excinfo.value.read())["error"] == "timeout"
        finally:
            service.release.set()
            httpd.shutdown()
            httpd.server_close()
            service.drain(timeout_s=10.0)
            clear_run_cache()


class TestDrain:
    def test_draining_service_rejects_new_work_and_finishes_old(self):
        clear_run_cache()
        service = GatedService(ServiceConfig(port=0))
        httpd, base = _start(service)
        try:
            results = []
            worker = threading.Thread(
                target=lambda: results.append(_post(base, REQUEST_BODY))
            )
            worker.start()
            deadline = time.time() + 10.0
            while service._queue.inflight < 1 and time.time() < deadline:
                time.sleep(0.01)
            drained = []
            drainer = threading.Thread(
                target=lambda: drained.append(service.drain(timeout_s=30.0))
            )
            drainer.start()
            time.sleep(0.05)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(base, REQUEST_BODY)
            assert excinfo.value.code == 503
            assert service.health()["status"] == "draining"
            service.release.set()
            drainer.join(30.0)
            worker.join(30.0)
            assert drained == [True]
            assert [status for status, _ in results] == [200]
        finally:
            service.release.set()
            httpd.shutdown()
            httpd.server_close()
            clear_run_cache()

    def test_drain_waits_for_journal_and_spans_of_inflight_requests(self):
        """Regression: a request admitted before drain but still inside
        its handler (journaling, flushing spans) must complete before
        drain() returns — the queue being empty is not enough."""
        clear_run_cache()

        class SlowFinishService(SimulationService):
            def __init__(self, config=None):
                super().__init__(config)
                self.entered_finish = threading.Event()
                self.release_finish = threading.Event()

            def finish_request(self, ctx, **kwargs):
                self.entered_finish.set()
                self.release_finish.wait(10.0)
                super().finish_request(ctx, **kwargs)

        service = SlowFinishService(ServiceConfig(port=0))
        httpd, base = _start(service)
        try:
            results = []
            worker = threading.Thread(
                target=lambda: results.append(_post(base, REQUEST_BODY))
            )
            worker.start()
            assert service.entered_finish.wait(30.0)
            # The queue is already empty; only the handler thread is
            # still finishing.  drain() must NOT return yet.
            drained = []
            drainer = threading.Thread(
                target=lambda: drained.append(service.drain(timeout_s=30.0))
            )
            drainer.start()
            time.sleep(0.2)
            assert drainer.is_alive(), "drain returned before telemetry flushed"
            service.release_finish.set()
            drainer.join(30.0)
            worker.join(30.0)
            assert drained == [True]
            # By the time drain returned, the outcome was journaled and
            # the trace stored.
            records = service.journal.tail(None)
            assert [r["outcome"] for r in records] == ["simulated"]
            assert service.spans.trace_ids()
        finally:
            service.release_finish.set()
            httpd.shutdown()
            httpd.server_close()
            clear_run_cache()


def _wait_until(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


class TestSlowClients:
    """A client that stops mid-body must not hold ``drain()`` open: its
    request is journaled as a 400 and stops counting as in flight."""

    @staticmethod
    def _send_part_of_a_body(service, base):
        url = urllib.parse.urlsplit(base)
        client = socket.create_connection((url.hostname, url.port), timeout=10.0)
        client.sendall(
            b"POST /run HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\nContent-Length: 100\r\n\r\n"
            b'{"algo'
        )
        _wait_until(lambda: service._http_inflight == 1)
        return client

    @staticmethod
    def _journal(service):
        return [(r["outcome"], r["status"]) for r in service.journal.tail(None)]

    def test_reset_mid_body_is_finished_and_drains(self, served):
        service, base = served
        client = self._send_part_of_a_body(service, base)
        # Linger 0: close() sends a reset instead of a FIN.
        client.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        client.close()
        assert service.drain(timeout_s=5.0) is True
        assert self._journal(service) == [("bad-request", 400)]

    def test_reset_before_the_response_is_quiet_and_served_on(
        self, served, monkeypatch, capsys
    ):
        # The request simulates until the client has reset, so its
        # response is written to a connection that is gone.
        gate, closed = threading.Event(), threading.Event()
        handle_run = SimulationService.handle_run
        shutdown_request = ServiceServer.shutdown_request

        def gated(self, request, ctx):
            assert gate.wait(10.0)
            return handle_run(self, request, ctx)

        def shut_down(self, request):
            # Runs after the server reported any error of the connection.
            shutdown_request(self, request)
            closed.set()

        monkeypatch.setattr(SimulationService, "handle_run", gated)
        monkeypatch.setattr(ServiceServer, "shutdown_request", shut_down)
        service, base = served
        url = urllib.parse.urlsplit(base)
        client = socket.create_connection((url.hostname, url.port), timeout=10.0)
        client.sendall(
            b"POST /run HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n"
            + f"Content-Length: {len(REQUEST_BODY)}\r\n\r\n".encode()
            + REQUEST_BODY
        )
        _wait_until(lambda: service._http_inflight == 1)
        client.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        client.close()
        time.sleep(0.05)  # let the reset reach the server's socket
        gate.set()
        assert closed.wait(10.0)
        assert self._journal(service) == [("simulated", 200)]
        status, _ = _post(base, REQUEST_BODY)
        assert status == 200
        assert capsys.readouterr().err == ""

    def test_stall_mid_body_times_out_and_drains(self, served, monkeypatch):
        monkeypatch.setattr(RequestHandler, "timeout", 0.3)
        service, base = served
        client = self._send_part_of_a_body(service, base)
        try:
            assert service.drain(timeout_s=5.0) is True
            assert self._journal(service) == [("bad-request", 400)]
            # The stalled client is still there, so it is answered.
            assert client.recv(4096).startswith(b"HTTP/1.1 400 ")
        finally:
            client.close()


# ---------------------------------------------------------------------------
# Per-request telemetry (PR 6)
# ---------------------------------------------------------------------------


def _post_with_headers(base, body, timeout=60.0):
    request = urllib.request.Request(
        base + "/run", data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, response.read(), dict(response.headers)


class TestRequestTelemetry:
    def test_request_ids_are_echoed_and_monotonic(self, served):
        _, base = served
        _, _, first = _post_with_headers(base, REQUEST_BODY)
        _, _, second = _post_with_headers(base, REQUEST_BODY)
        assert first["X-Request-Id"] == "req-000001"
        assert second["X-Request-Id"] == "req-000002"

    def test_error_responses_carry_a_request_id(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, b"{not json")
        assert excinfo.value.code == 400
        assert excinfo.value.headers["X-Request-Id"] == "req-000001"
        excinfo.value.read()

    def test_debug_requests_returns_structured_records(self, served):
        service, base = served
        _post(base, REQUEST_BODY)  # cold -> simulated
        _post(base, REQUEST_BODY)  # warm -> cached
        with urllib.request.urlopen(
            base + "/debug/requests", timeout=10.0
        ) as response:
            payload = json.loads(response.read())
        assert payload["enabled"] is True
        assert payload["capacity"] == 256
        records = payload["requests"]
        assert [r["request_id"] for r in records] == ["req-000001", "req-000002"]
        assert [r["outcome"] for r in records] == ["simulated", "cached"]
        assert all(r["status"] == 200 for r in records)
        assert all(r["total_ms"] > 0 for r in records)
        assert records[0]["simulate_ms"] > 0
        assert records[0]["queue_wait_ms"] >= 0
        # the journaled cache key is the canonical request digest — the
        # same string that names the L2 entry and places the key on the
        # cluster front's hash ring
        expected = RunRequest.make("bfs", "human", "TX1", "scu-enhanced")
        assert records[0]["cache_key"] == expected.cache_digest()

    def test_debug_requests_honors_n(self, served):
        service, base = served
        for _ in range(3):
            _post(base, REQUEST_BODY)
        with urllib.request.urlopen(
            base + "/debug/requests?n=2", timeout=10.0
        ) as response:
            payload = json.loads(response.read())
        ids = [r["request_id"] for r in payload["requests"]]
        assert ids == ["req-000002", "req-000003"]

    def test_journal_is_a_bounded_ring(self):
        clear_run_cache()
        service = SimulationService(ServiceConfig(port=0, journal_size=2))
        httpd, base = _start(service)
        try:
            for _ in range(4):
                _post(base, REQUEST_BODY)
            records = service.journal.tail(None)
            assert len(records) == 2
            assert [r["request_id"] for r in records] == [
                "req-000003",
                "req-000004",
            ]
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.drain(timeout_s=10.0)
            clear_run_cache()

    def test_rejected_counter_labels_overload_and_draining(self):
        registry = MetricsRegistry()
        queue = ServiceQueue(workers=1, queue_depth=1, registry=registry)
        release = threading.Event()
        queue.submit(lambda: release.wait(10.0))
        deadline = time.time() + 10.0
        while queue.inflight < 1 and time.time() < deadline:
            time.sleep(0.01)
        queue.submit(lambda: None)
        with pytest.raises(ServiceOverloadError):
            queue.submit(lambda: None)
        assert registry.counter(REJECTED_METRIC).value(reason="overload") == 1.0
        release.set()
        assert queue.drain(timeout_s=10.0)
        with pytest.raises(ServiceUnavailableError):
            queue.submit(lambda: None)
        assert registry.counter(REJECTED_METRIC).value(reason="draining") == 1.0

    def test_429_carries_wellformed_retry_after(self):
        clear_run_cache()
        service = GatedService(
            ServiceConfig(port=0, workers=1, queue_depth=1, retry_after_s=2.5)
        )
        httpd, base = _start(service)
        try:
            body = json.dumps(
                {
                    "algorithm": "bfs",
                    "dataset": "human",
                    "gpu": "TX1",
                    "mode": "gpu",
                }
            ).encode()
            thread = threading.Thread(target=lambda: _post(base, body))
            thread.start()
            deadline = time.time() + 10.0
            while service._queue.inflight < 1 and time.time() < deadline:
                time.sleep(0.01)
            second = json.dumps(
                {
                    "algorithm": "bfs",
                    "dataset": "delaunay",
                    "gpu": "TX1",
                    "mode": "gpu",
                }
            ).encode()
            t2 = threading.Thread(target=lambda: _post(base, second))
            t2.start()
            while service._queue.depth < 1 and time.time() < deadline:
                time.sleep(0.01)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(
                    base,
                    json.dumps(
                        {
                            "algorithm": "bfs",
                            "dataset": "kron",
                            "gpu": "TX1",
                            "mode": "gpu",
                        }
                    ).encode(),
                )
            assert excinfo.value.code == 429
            retry_after = excinfo.value.headers["Retry-After"]
            # RFC 7231: delay-seconds must parse as a non-negative number
            assert float(retry_after) == 2.5
            excinfo.value.read()
            # the rejection is journaled (records land before the
            # response bytes leave, so no polling is needed)
            rejected = [
                r
                for r in service.journal.tail(None)
                if r["outcome"] == "rejected-429"
            ]
            assert rejected and rejected[0]["status"] == 429
            service.release.set()
            thread.join(60.0)
            t2.join(60.0)
        finally:
            service.release.set()
            httpd.shutdown()
            httpd.server_close()
            service.drain(timeout_s=10.0)
            clear_run_cache()

    def test_metrics_exposition_is_parseable_with_buckets(self, served):
        from repro.obs import check_exposition

        _, base = served
        _post(base, REQUEST_BODY)
        with urllib.request.urlopen(base + "/metrics", timeout=10.0) as response:
            text = response.read().decode()
        samples = check_exposition(text)  # conformance: TYPE lines, escapes
        names = {s.name for s in samples}
        assert "serve_latency_total_seconds_bucket" in names
        assert "serve_latency_simulate_seconds_bucket" in names
        bucket = next(
            s
            for s in samples
            if s.name == "serve_latency_total_seconds_bucket"
            and s.labels_dict().get("le") == "+Inf"
        )
        assert bucket.value == 1.0

    def test_access_log_writes_json_lines(self, tmp_path):
        clear_run_cache()
        log_path = tmp_path / "access.jsonl"
        service = SimulationService(
            ServiceConfig(port=0, access_log=str(log_path))
        )
        httpd, base = _start(service)
        try:
            _post(base, REQUEST_BODY)
            urllib.request.urlopen(base + "/healthz", timeout=10.0).read()
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.drain(timeout_s=10.0)
            service.close()
            clear_run_cache()
        lines = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
            if line
        ]
        run_lines = [l for l in lines if l["path"] == "/run"]
        assert run_lines and run_lines[0]["status"] == 200
        assert run_lines[0]["request_id"] == "req-000001"
        assert run_lines[0]["outcome"] == "simulated"
        assert any(l["path"] == "/healthz" for l in lines)

    @staticmethod
    def _access_log_lines(tmp_path, send):
        log_path = tmp_path / "access.jsonl"
        service = SimulationService(ServiceConfig(port=0, access_log=str(log_path)))
        httpd, base = _start(service)
        try:
            send(base)
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.drain(timeout_s=10.0)
            service.close()
        return [
            (line["method"], line["path"], line["status"])
            for line in map(json.loads, log_path.read_text().splitlines())
        ]

    def test_access_log_line_is_written_before_the_response(
        self, tmp_path, monkeypatch
    ):
        # A line written after the response races the shutdown that
        # closes the log: drain() does not wait for GET handlers.
        log_access = SimulationService.log_access

        def slow_log_access(self, method, path, status):
            time.sleep(1.5)
            log_access(self, method, path, status)

        monkeypatch.setattr(SimulationService, "log_access", slow_log_access)

        def send(base):
            urllib.request.urlopen(base + "/healthz", timeout=10.0).read()

        assert self._access_log_lines(tmp_path, send) == [("GET", "/healthz", 200)]

    def test_unknown_routes_are_logged_with_their_method(self, tmp_path):
        def send(base):
            for data in (b"{}", None):
                request = urllib.request.Request(base + "/nope", data=data)
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(request, timeout=10.0)
                assert excinfo.value.code == 404
                excinfo.value.read()

        assert self._access_log_lines(tmp_path, send) == [
            ("POST", "/nope", 404),
            ("GET", "/nope", 404),
        ]

    def test_telemetry_off_disables_journal_but_keeps_ids(self):
        clear_run_cache()
        service = SimulationService(ServiceConfig(port=0, telemetry=False))
        httpd, base = _start(service)
        try:
            status, _, headers = _post_with_headers(base, REQUEST_BODY)
            assert status == 200
            assert headers["X-Request-Id"] == "req-000001"
            with urllib.request.urlopen(
                base + "/debug/requests", timeout=10.0
            ) as response:
                payload = json.loads(response.read())
            assert payload == {"enabled": False, "capacity": 0, "requests": []}
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.drain(timeout_s=10.0)
            clear_run_cache()


# ---------------------------------------------------------------------------
# Distributed tracing over HTTP
# ---------------------------------------------------------------------------

from repro.obs.spans import SIM_SPAN_CATEGORIES  # noqa: E402

CLIENT_TRACE = "a" * 31 + "b"
CLIENT_SPAN = "c" * 15 + "d"
TRACEPARENT = f"00-{CLIENT_TRACE}-{CLIENT_SPAN}-01"


def _post_traced(base, body, traceparent, timeout=60.0):
    headers = {"Content-Type": "application/json"}
    if traceparent is not None:
        headers["traceparent"] = traceparent
    request = urllib.request.Request(base + "/run", data=body, headers=headers)
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, response.read(), dict(response.headers)


def _get_trace(base, trace_id, raw=True):
    suffix = "?raw=1" if raw else ""
    with urllib.request.urlopen(
        f"{base}/debug/trace/{trace_id}{suffix}", timeout=10.0
    ) as response:
        return json.loads(response.read())


class TestTracing:
    def test_traceparent_joins_client_trace(self, served):
        _, base = served
        status, _, headers = _post_traced(base, REQUEST_BODY, TRACEPARENT)
        assert status == 200
        assert headers["X-Trace-Id"] == CLIENT_TRACE

        payload = _get_trace(base, CLIENT_TRACE)
        assert payload["trace_id"] == CLIENT_TRACE
        spans = payload["spans"]
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], span)
        assert all(span["trace_id"] == CLIENT_TRACE for span in spans)

        # The server's root span hangs off the client's span.
        request_span = by_name["serve.request"]
        assert request_span["parent_id"] == CLIENT_SPAN
        assert request_span["status"] == "ok"
        assert request_span["attributes"]["outcome"] == "simulated"
        assert request_span["attributes"]["http.status"] == 200

        # Queue wait and simulate are children of the request span.
        assert by_name["serve.queue_wait"]["parent_id"] == request_span["span_id"]
        simulate = by_name["serve.simulate"]
        assert simulate["parent_id"] == request_span["span_id"]
        assert simulate["attributes"]["algorithm"] == "bfs"

        # Per-phase simulation spans came along, under the simulate span.
        phases = [s for s in spans if s["category"] in SIM_SPAN_CATEGORIES]
        assert len(phases) >= 1
        parent_ids = {span["span_id"] for span in spans}
        assert all(
            span["parent_id"] in parent_ids for span in phases
        )  # no orphans: every phase chains back into the tree

    def test_malformed_traceparent_mints_fresh_trace(self, served):
        _, base = served
        status, _, headers = _post_traced(base, REQUEST_BODY, "00-junk-junk-01")
        assert status == 200
        trace_id = headers["X-Trace-Id"]
        assert len(trace_id) == 32 and trace_id != CLIENT_TRACE
        payload = _get_trace(base, trace_id)
        request_span = next(
            s for s in payload["spans"] if s["name"] == "serve.request"
        )
        assert request_span["parent_id"] is None  # fresh root, no fake parent

    def test_journal_rows_join_traces(self, served):
        _, base = served
        _, _, headers = _post_traced(base, REQUEST_BODY, TRACEPARENT)
        with urllib.request.urlopen(
            base + "/debug/requests", timeout=10.0
        ) as response:
            journal = json.loads(response.read())["requests"]
        row = journal[-1]
        assert row["trace_id"] == headers["X-Trace-Id"] == CLIENT_TRACE
        request_span = next(
            s
            for s in _get_trace(base, CLIENT_TRACE)["spans"]
            if s["name"] == "serve.request"
        )
        assert row["span_id"] == request_span["span_id"]

    def test_debug_traces_lists_known_traces(self, served):
        _, base = served
        _post_traced(base, REQUEST_BODY, TRACEPARENT)
        with urllib.request.urlopen(base + "/debug/traces", timeout=10.0) as r:
            payload = json.loads(r.read())
        assert payload["enabled"] is True
        assert [t for t, _count in payload["traces"]] == [CLIENT_TRACE]
        assert payload["traces"][0][1] >= 3  # request + queue + simulate...

    def test_unknown_trace_is_404(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get_trace(base, "f" * 32)
        assert excinfo.value.code == 404
        assert json.loads(excinfo.value.read())["error"] == "unknown-trace"

    def test_chrome_form_is_default(self, served):
        _, base = served
        _post_traced(base, REQUEST_BODY, TRACEPARENT)
        doc = _get_trace(base, CLIENT_TRACE, raw=False)
        assert doc["otherData"]["trace_id"] == CLIENT_TRACE
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert any(e["name"] == "serve.request" for e in slices)

    def test_follower_links_to_leader_simulate_span(self):
        clear_run_cache()
        service = CoalescingGatedService(ServiceConfig(port=0))
        service.expected = 1
        httpd, base = _start(service)
        try:
            leader_tp = f"00-{'1' * 32}-{'1' * 16}-01"
            follower_tp = f"00-{'2' * 32}-{'2' * 16}-01"
            results = {}

            def run(name, traceparent):
                results[name] = _post_traced(base, REQUEST_BODY, traceparent)

            first = threading.Thread(target=run, args=("a", leader_tp))
            first.start()
            # Let the first request become the single-flight leader
            # (its gated simulation blocks until someone coalesces).
            time.sleep(0.3)
            second = threading.Thread(target=run, args=("b", follower_tp))
            second.start()
            first.join(60.0)
            second.join(60.0)
            assert results["a"][0] == 200 and results["b"][0] == 200
            assert results["a"][1] == results["b"][1]  # same response bytes

            spans = {
                trace: _get_trace(base, trace)["spans"]
                for trace in ("1" * 32, "2" * 32)
            }
            link_spans = [
                s
                for trace in spans.values()
                for s in trace
                if s["name"] == "serve.coalesce_wait" and s.get("links")
            ]
            assert len(link_spans) == 1  # exactly one follower
            (link,) = link_spans[0]["links"]
            # The link lands on the *other* trace's simulate span.
            leader_trace = link["trace_id"]
            assert leader_trace != link_spans[0]["trace_id"]
            leader_simulate = next(
                s for s in spans[leader_trace] if s["name"] == "serve.simulate"
            )
            assert link["span_id"] == leader_simulate["span_id"]
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.drain(timeout_s=10.0)
            clear_run_cache()

    def test_isolated_worker_spans_are_stitched_in(self):
        clear_run_cache()
        service = SimulationService(ServiceConfig(port=0, run_isolated=True))
        httpd, base = _start(service)
        try:
            status, _, headers = _post_traced(base, REQUEST_BODY, TRACEPARENT)
            assert status == 200
            spans = _get_trace(base, headers["X-Trace-Id"])["spans"]
            worker_spans = [
                s for s in spans if s["process"].startswith("worker-")
            ]
            assert worker_spans  # the forked child's spans came back
            assert any(
                s["category"] in SIM_SPAN_CATEGORIES for s in worker_spans
            )
            # Worker roots hang under the parent's simulate span.
            simulate = next(s for s in spans if s["name"] == "serve.simulate")
            span_ids = {s["span_id"] for s in spans}
            assert all(
                s["parent_id"] in span_ids for s in worker_spans
            )
            assert any(
                s["parent_id"] == simulate["span_id"] for s in worker_spans
            )
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.drain(timeout_s=10.0)
            clear_run_cache()

    def test_tracing_off_is_byte_identical_and_dark(self, served):
        # Traced reference response.
        _, traced_body, traced_headers = _post_traced(
            base := served[1], REQUEST_BODY, TRACEPARENT
        )
        # Same request against an untraced service, cold cache again.
        clear_run_cache()
        service = SimulationService(ServiceConfig(port=0, tracing=False))
        httpd, dark_base = _start(service)
        try:
            status, dark_body, dark_headers = _post_traced(
                dark_base, REQUEST_BODY, TRACEPARENT
            )
            assert status == 200
            assert dark_body == traced_body  # tracing never changes results
            assert "X-Trace-Id" in traced_headers
            assert "X-Trace-Id" not in dark_headers
            with urllib.request.urlopen(
                dark_base + "/debug/traces", timeout=10.0
            ) as response:
                assert json.loads(response.read()) == {
                    "enabled": False,
                    "traces": [],
                }
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get_trace(dark_base, CLIENT_TRACE)
            assert excinfo.value.code == 404
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.drain(timeout_s=10.0)
            clear_run_cache()


# ---------------------------------------------------------------------------
# One response, byte for byte, whatever serves it
# ---------------------------------------------------------------------------

#: Three distinct keys and a repeat of the first, sent as one burst.
PINNED_REQUESTS = (
    RunRequest.make("bfs", "human", "TX1", "gpu"),
    RunRequest.make("bfs", "human", "TX1", "scu-enhanced"),
    RunRequest.make("pagerank", "human", "TX1", "iru"),
    RunRequest.make("bfs", "human", "TX1", "gpu"),
)


@pytest.fixture(scope="module")
def pinned_responses():
    """Each pinned request's bytes, straight from ``execute_request``."""
    return [
        encode(run_response(request, execute_request(request).report))
        for request in PINNED_REQUESTS
    ]


def _burst(config):
    """Post the pinned requests at once, a cold and then a warm pass on
    one service; each pass's (bodies, serve.simulations so far)."""
    service = SimulationService(config)
    httpd, base = _start(service)
    bodies = [json.dumps(request.to_dict()).encode() for request in PINNED_REQUESTS]
    try:
        return [
            (
                [body for _, body in _post_concurrently(base, bodies)],
                service.registry.counter(SIMULATIONS_METRIC).total(),
            )
            for _ in ("cold", "warm")
        ]
    finally:
        _stop(service, httpd)


class TestResponseBytesAcrossConfigurations:
    @pytest.mark.parametrize(
        "settings",
        [
            pytest.param({}, id="default"),
            pytest.param({"tracing": False}, id="untraced"),
            pytest.param({"telemetry": False}, id="no-telemetry"),
            pytest.param({"run_isolated": True}, id="isolated"),
            pytest.param({"store_dir": "cold"}, id="store-cold-start"),
        ],
    )
    def test_every_configuration_serves_the_same_bytes(
        self, settings, pinned_responses, tmp_path
    ):
        distinct = len(set(PINNED_REQUESTS))
        clear_run_cache()
        try:
            if settings.get("store_dir") == "cold":
                # Warm the store, then serve from it with an empty L1.
                settings = {"store_dir": str(tmp_path)}
                cold, warm = _burst(ServiceConfig(port=0, **settings))
                assert cold == warm == (pinned_responses, distinct)
                clear_run_cache()
                distinct = 0
            # The warm pass is served from the response memo.
            cold, warm = _burst(ServiceConfig(port=0, **settings))
            assert cold == warm == (pinned_responses, distinct)
        finally:
            clear_run_cache()

