"""Tests for the sharded serve cluster (repro.serve.cluster).

Unit-level: the consistent-hash ring (determinism, balance, minimal
movement on rebalance).  Integration-level: a LocalCluster end to end —
routing through the front is byte-identical to hitting a worker
directly, identical requests reach one worker (cluster-wide
single-flight), a lost worker yields a deterministic 503 + Retry-After
and the retry succeeds on the rebalanced ring, and the merged front
``/metrics`` stays a conformant exposition.
"""

import json
import math
import urllib.error
import urllib.request

import pytest

from repro.algorithms.runner import clear_run_cache
from repro.errors import ServiceError
from repro.obs.promtext import check_exposition, sum_by_name
from repro.request import RunRequest
from repro.serve.cluster import HashRing, LocalCluster
from repro.serve.server import READ_TIMEOUT_S

from .test_serve import (
    MALFORMED_LENGTHS,
    keep_alive_median_s,
    post_with_content_length,
    unknown_post_then_health,
)

BODY = json.dumps(
    {"algorithm": "bfs", "dataset": "human", "gpu": "TX1", "mode": "scu-enhanced"}
).encode()
REQUEST = RunRequest.make("bfs", "human", "TX1", "scu-enhanced")


def _post(base, body=BODY, timeout=60.0):
    request = urllib.request.Request(
        base + "/run", data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, response.read(), dict(response.headers)


def _get_json(base, path, timeout=10.0):
    with urllib.request.urlopen(base + path, timeout=timeout) as response:
        return json.loads(response.read())


class TestHashRing:
    def test_placement_is_deterministic(self):
        nodes = ("http://a", "http://b", "http://c")
        first = HashRing(nodes)
        second = HashRing(nodes)
        digests = [f"{i:064x}" for i in range(200)]
        assert [first.node_for(d) for d in digests] == [
            second.node_for(d) for d in digests
        ]

    def test_every_node_owns_keys(self):
        ring = HashRing(("http://a", "http://b", "http://c"))
        owners = {ring.node_for(f"{i:064x}") for i in range(500)}
        assert owners == set(ring.nodes)

    def test_remove_moves_only_the_lost_nodes_keys(self):
        """Consistent hashing's defining property: survivors keep theirs."""
        nodes = ("http://a", "http://b", "http://c", "http://d")
        ring = HashRing(nodes)
        digests = [f"{i:064x}" for i in range(500)]
        before = {d: ring.node_for(d) for d in digests}
        ring.remove("http://c")
        for digest, owner in before.items():
            if owner != "http://c":
                assert ring.node_for(digest) == owner
        # the orphaned keys all found a surviving owner
        orphans = [d for d, o in before.items() if o == "http://c"]
        assert orphans, "test population never hit the removed node"
        assert all(ring.node_for(d) in ring.nodes for d in orphans)

    def test_add_is_idempotent_and_restores_placement(self):
        ring = HashRing(("http://a", "http://b"))
        before = [ring.node_for(f"{i:064x}") for i in range(100)]
        ring.add("http://a")  # no-op
        ring.remove("http://b")
        ring.add("http://b")
        assert [ring.node_for(f"{i:064x}") for i in range(100)] == before

    def test_empty_ring_routes_nowhere(self):
        ring = HashRing(("http://a",))
        ring.remove("http://a")
        assert ring.node_for("0" * 64) is None

    def test_vnodes_must_be_positive(self):
        with pytest.raises(ServiceError, match="vnodes"):
            HashRing(vnodes=0)


@pytest.fixture
def cluster(tmp_path):
    clear_run_cache()
    local = LocalCluster(2, store_dir=str(tmp_path / "store"))
    yield local
    local.close()
    clear_run_cache()


class TestClusterFront:
    def test_routed_response_matches_direct_worker_response(self, cluster):
        status, via_front, headers = _post(cluster.url)
        assert status == 200
        owner = headers["X-Cluster-Worker"]
        assert owner in cluster.worker_urls
        _, direct, _ = _post(owner)
        assert via_front == direct

    def test_identical_requests_land_on_one_worker_once(self, cluster):
        _, first, h1 = _post(cluster.url)
        _, second, h2 = _post(cluster.url)
        assert first == second
        assert h1["X-Cluster-Worker"] == h2["X-Cluster-Worker"]
        # cluster-wide single simulation, visible in the merged scrape
        with urllib.request.urlopen(
            cluster.url + "/metrics", timeout=10.0
        ) as response:
            samples = check_exposition(response.read().decode())
        assert sum_by_name(samples, "serve_simulations") == 1.0
        assert sum_by_name(samples, "cluster_routed") == 2.0

    def test_unknown_post_body_is_not_read_as_the_next_request(self, cluster):
        missing, status, body = unknown_post_then_health(cluster.url)
        assert (missing, status) == (404, 200)
        assert json.loads(body)["status"] == "ok"

    def test_healthz_aggregates_workers(self, cluster):
        payload = _get_json(cluster.url, "/healthz")
        assert payload["status"] == "ok"
        assert payload["healthy_workers"] == 2
        assert {w["url"] for w in payload["workers"]} == set(
            cluster.worker_urls
        )

    def test_keep_alive_front_responses_do_not_wait_for_a_delayed_ack(self, cluster):
        assert keep_alive_median_s(cluster.url) < 0.020

    def test_merged_metrics_are_conformant(self, cluster):
        _post(cluster.url)
        with urllib.request.urlopen(
            cluster.url + "/metrics", timeout=10.0
        ) as response:
            text = response.read().decode()
        samples = check_exposition(text)  # raises on a malformed merge
        assert sum_by_name(samples, "cluster_workers_healthy") == 2.0
        assert sum_by_name(samples, "serve_requests") >= 1.0

    def test_trace_fanout_through_front(self, cluster):
        _, _, headers = _post(cluster.url)
        trace_id = headers.get("X-Trace-Id")
        assert trace_id
        payload = _get_json(cluster.url, f"/debug/trace/{trace_id}?raw=1")
        assert payload["trace_id"] == trace_id
        assert payload["spans"]

    def test_invalid_request_rejected_at_the_edge(self, cluster):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(cluster.url, body=b"{not json")
        assert excinfo.value.code == 400
        payload = json.loads(excinfo.value.read())
        assert payload["error"] == "bad-request"
        # the edge rejected it: nothing was routed to a worker
        assert (
            cluster.front.registry.counter("cluster.routed").total() == 0.0
        )

    @pytest.mark.parametrize("length", MALFORMED_LENGTHS)
    def test_malformed_content_length_is_400_at_the_edge(self, cluster, length):
        seconds, status, payload = post_with_content_length(cluster.url, length)
        assert (status, payload["error"]) == (400, "bad-request")
        assert seconds < READ_TIMEOUT_S / 4  # not answered by the read timeout
        assert cluster.front.registry.counter("cluster.routed").total() == 0.0

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_kwargs_get_the_workers_400_at_the_edge(self, cluster, value):
        body = json.dumps({**REQUEST.to_dict(), "kwargs": {"source": value}}).encode()
        answers = []
        for base in (cluster.url, cluster.worker_urls[0]):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(base, body=body)
            answers.append((excinfo.value.code, excinfo.value.read()))
        assert answers[0] == answers[1]
        assert answers[0][0] == 400
        assert cluster.front.registry.counter("cluster.routed").total() == 0.0

    def test_worker_loss_is_deterministic_503_then_retry_succeeds(
        self, cluster
    ):
        # Kill whichever worker owns this digest, so the next POST is
        # guaranteed to hit the dead one.
        digest = REQUEST.cache_digest()
        owner = cluster.front.route(digest)
        index = cluster.worker_urls.index(owner)
        cluster.worker_servers[index].shutdown()
        cluster.worker_servers[index].server_close()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(cluster.url)
        assert excinfo.value.code == 503
        assert excinfo.value.headers["Retry-After"] is not None
        payload = json.loads(excinfo.value.read())
        assert payload["error"] == "unavailable"
        assert payload["retry_after_s"] == pytest.approx(1.0)
        # the ring rebalanced: the retry routes to the survivor
        status, body, headers = _post(cluster.url)
        assert status == 200
        survivor = headers["X-Cluster-Worker"]
        assert survivor != owner
        health = _get_json(cluster.url, "/healthz")
        assert health["status"] == "degraded"
        assert health["healthy_workers"] == 1

    def test_draining_front_rejects_new_work(self, cluster):
        assert cluster.front.drain(timeout_s=5.0)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(cluster.url)
        assert excinfo.value.code == 503
        excinfo.value.read()
        assert _get_json(cluster.url, "/healthz")["status"] == "draining"

    def test_shared_store_survives_worker_migration(self, cluster, tmp_path):
        """A key that migrates after worker loss cold-starts from the
        shared L2 instead of re-simulating."""
        digest = REQUEST.cache_digest()
        _, first, _ = _post(cluster.url)  # simulated on the owner, stored
        owner = cluster.front.route(digest)
        index = cluster.worker_urls.index(owner)
        survivor_index = 1 - index
        # wipe the survivor's view of L1 so only the shared disk serves
        clear_run_cache()
        cluster.worker_servers[index].shutdown()
        cluster.worker_servers[index].server_close()
        cluster.front.mark_unhealthy(owner, "test kill")
        status, second, headers = _post(cluster.url)
        assert status == 200
        assert second == first  # byte-identical across the migration
        assert headers["X-Cluster-Worker"] == cluster.worker_urls[
            survivor_index
        ]
        survivor = cluster.services[survivor_index]
        assert survivor.registry.counter("serve.simulations").total() == 0.0


class TestHealthSweep:
    def test_sweep_marks_dead_then_recovered(self, cluster):
        owner = cluster.worker_urls[0]
        cluster.worker_servers[0].shutdown()
        cluster.worker_servers[0].server_close()
        cluster.front.check_workers()
        assert owner not in cluster.front.ring
        assert _get_json(cluster.url, "/healthz")["healthy_workers"] == 1
        # recovery path: mark_healthy re-admits (the monitor calls this
        # when /healthz answers again)
        cluster.front.mark_healthy(owner)
        assert owner in cluster.front.ring
