"""Consistent-hash sharded cluster front for ``repro serve``.

A cluster is N independent ``repro serve`` worker daemons behind one
stdlib HTTP **front router**.  The front validates each ``POST /run``
body, computes the request's canonical
:meth:`~repro.request.RunRequest.cache_digest`, and consistent-hash
maps that digest onto a worker.  Because identical requests always
land on the same worker, the worker's in-process single-flight becomes
*cluster-wide* single-flight: one simulation per unique request across
the whole fleet, without any cross-worker coordination.

The ring (:class:`HashRing`) hashes each node to ``vnodes`` points on a
64-bit circle; a digest routes to the first point clockwise from its
own hash.  Removing a node reassigns only that node's arcs (~1/N of
keys), and because every worker shares one content-addressed
:class:`~repro.serve.store.ResultStore` directory, keys that migrate to
a new worker still cold-start from the L2 tier instead of
re-simulating.

Failure handling is deterministic: a worker that refuses connections is
marked unhealthy, removed from the ring, and the in-flight request gets
a ``503`` + ``Retry-After`` — the client's retry re-routes onto the
rebalanced ring.  A background monitor re-adds workers whose
``/healthz`` recovers.

Front routes: ``POST /run`` (proxied), ``GET /healthz`` (aggregate),
``GET /metrics`` (cluster counters + live worker scrapes merged by
:func:`~repro.obs.promtext.merge_expositions`), ``GET /debug/trace/*``
and ``/debug/traces`` / ``/debug/requests`` (fanned out).
"""

from __future__ import annotations

import bisect
import hashlib
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from http.server import ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ProtocolError, ServiceError
from ..obs.metrics import MetricsRegistry
from ..obs.promtext import merge_expositions
from .protocol import encode, error_payload, parse_run_request
from .server import OneSendHandler, ServiceConfig, SimulationService, make_server
from .store import DEFAULT_STORE_MAX_BYTES

ROUTED_METRIC = "cluster.routed"
PROXY_ERRORS_METRIC = "cluster.proxy_errors"
UNAVAILABLE_METRIC = "cluster.unavailable"
REBALANCES_METRIC = "cluster.rebalances"
HEALTHY_WORKERS_METRIC = "cluster.workers.healthy"

#: Virtual nodes per worker: enough points that removing one worker
#: spreads its arcs evenly over the survivors (imbalance < ~10% at
#: small N) while keeping ring rebuilds trivially cheap.
DEFAULT_VNODES = 64

#: Headers a proxied response forwards back to the client verbatim.
_FORWARD_HEADERS = ("X-Request-Id", "X-Trace-Id", "Retry-After")


def _hash_point(value: str) -> int:
    """64-bit position of ``value`` on the ring circle."""
    return int.from_bytes(
        hashlib.sha256(value.encode("utf-8")).digest()[:8], "big"
    )


class HashRing:
    """Consistent-hash ring with virtual nodes.

    Nodes are opaque strings (worker base URLs here).  Placement is a
    pure function of (node set, vnodes): every front that knows the
    same live set routes a digest identically, and tests can predict
    placement offline.
    """

    def __init__(self, nodes: Tuple[str, ...] = (), *, vnodes: int = DEFAULT_VNODES):
        if vnodes <= 0:
            raise ServiceError(f"ring vnodes must be positive, got {vnodes}")
        self.vnodes = vnodes
        self._nodes: set = set()
        self._points: List[Tuple[int, str]] = []
        self._keys: List[int] = []
        for node in nodes:
            self.add(node)

    @property
    def nodes(self) -> Tuple[str, ...]:
        return tuple(sorted(self._nodes))

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def _rebuild(self) -> None:
        self._points = sorted(
            (_hash_point(f"{node}#{i}"), node)
            for node in self._nodes
            for i in range(self.vnodes)
        )
        self._keys = [point for point, _ in self._points]

    def add(self, node: str) -> None:
        if node in self._nodes:
            return
        self._nodes.add(node)
        self._rebuild()

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._rebuild()

    def node_for(self, digest: str) -> Optional[str]:
        """The node owning ``digest`` (first ring point clockwise)."""
        if not self._points:
            return None
        point = _hash_point(digest)
        index = bisect.bisect_right(self._keys, point)
        if index == len(self._points):
            index = 0  # wrap past the top of the circle
        return self._points[index][1]


@dataclass(frozen=True)
class ClusterConfig:
    """Tunables of one cluster front (CLI flags map 1:1)."""

    host: str = "127.0.0.1"
    port: int = 8788
    workers: int = 2
    vnodes: int = DEFAULT_VNODES
    #: Worker-side knobs, forwarded to each spawned ``repro serve``.
    worker_threads: int = 2
    queue_depth: int = 8
    request_timeout_s: Optional[float] = None
    #: Shared L2 store directory; every worker mounts the same one so
    #: keys survive ring migration.  ``None`` disables the disk tier.
    store_dir: Optional[str] = None
    store_max_bytes: int = DEFAULT_STORE_MAX_BYTES
    #: Retry-After (seconds) on a deterministic routing 503.
    retry_after_s: float = 1.0
    #: Health monitor sweep interval and per-probe timeout.
    health_interval_s: float = 1.0
    health_timeout_s: float = 2.0
    #: Socket timeout of one proxied /run (simulations can be slow).
    proxy_timeout_s: float = 600.0
    drain_timeout_s: float = 30.0


@dataclass
class WorkerState:
    """Mutable health record of one worker behind the front."""

    url: str
    healthy: bool = True
    consecutive_failures: int = 0
    last_error: Optional[str] = None


@dataclass
class _ProxyResult:
    status: int
    body: bytes
    headers: Tuple[Tuple[str, str], ...] = ()


class ClusterFront:
    """Routing core of the cluster; the HTTP handler is a shell over it.

    Owns the ring, the per-worker health records, and the cluster
    registry (``cluster.*`` counters).  All ring/health mutation happens
    under one lock; proxying itself runs outside it.
    """

    def __init__(self, worker_urls: List[str], config: ClusterConfig | None = None):
        if not worker_urls:
            raise ServiceError("a cluster front needs at least one worker URL")
        self.config = config if config is not None else ClusterConfig()
        self.registry = MetricsRegistry()
        self._lock = threading.Lock()
        self.workers: Dict[str, WorkerState] = {
            url: WorkerState(url=url) for url in worker_urls
        }
        self.ring = HashRing(tuple(worker_urls), vnodes=self.config.vnodes)
        self._draining = False
        self._inflight = 0
        self._inflight_cond = threading.Condition()
        self._monitor: Optional[threading.Thread] = None
        self._monitor_stop = threading.Event()
        # Pre-register so the first exposition lists every counter.
        for name in (
            ROUTED_METRIC,
            PROXY_ERRORS_METRIC,
            UNAVAILABLE_METRIC,
            REBALANCES_METRIC,
        ):
            self.registry.counter(name)
        self.registry.gauge(HEALTHY_WORKERS_METRIC).set(len(worker_urls))

    # -- ring / health --------------------------------------------------
    def route(self, digest: str) -> Optional[str]:
        """The worker URL owning ``digest`` on the current ring."""
        with self._lock:
            return self.ring.node_for(digest)

    def mark_unhealthy(self, url: str, reason: str) -> None:
        """Drop a worker from the ring (no-op if already out)."""
        with self._lock:
            state = self.workers.get(url)
            if state is None:
                return
            state.consecutive_failures += 1
            state.last_error = reason
            if not state.healthy:
                return
            state.healthy = False
            self.ring.remove(url)
            healthy = sum(1 for s in self.workers.values() if s.healthy)
        self.registry.counter(REBALANCES_METRIC).inc(direction="out")
        self.registry.gauge(HEALTHY_WORKERS_METRIC).set(healthy)

    def mark_healthy(self, url: str) -> None:
        """Re-admit a recovered worker to the ring (no-op if present)."""
        with self._lock:
            state = self.workers.get(url)
            if state is None:
                return
            state.consecutive_failures = 0
            state.last_error = None
            if state.healthy:
                return
            state.healthy = True
            self.ring.add(url)
            healthy = sum(1 for s in self.workers.values() if s.healthy)
        self.registry.counter(REBALANCES_METRIC).inc(direction="in")
        self.registry.gauge(HEALTHY_WORKERS_METRIC).set(healthy)

    def check_workers(self) -> None:
        """One health sweep: probe every worker's ``/healthz``."""
        for url in list(self.workers):
            try:
                with urllib.request.urlopen(
                    f"{url}/healthz", timeout=self.config.health_timeout_s
                ) as response:
                    ok = response.status == 200
            except (urllib.error.URLError, OSError) as error:
                self.mark_unhealthy(url, f"healthz: {error}")
                continue
            if ok:
                self.mark_healthy(url)
            else:
                self.mark_unhealthy(url, "healthz: non-200")

    def start_monitor(self) -> None:
        """Start the background health sweep (idempotent)."""
        if self._monitor is not None:
            return

        def loop() -> None:
            while not self._monitor_stop.wait(self.config.health_interval_s):
                self.check_workers()

        self._monitor = threading.Thread(
            target=loop, name="cluster-health", daemon=True
        )
        self._monitor.start()

    # -- request path ---------------------------------------------------
    def handle_run(
        self, body: bytes, traceparent: Optional[str] = None
    ) -> _ProxyResult:
        """Route one ``POST /run`` body to its owning worker."""
        if self._draining:
            self.registry.counter(UNAVAILABLE_METRIC).inc(reason="draining")
            return self._unavailable("cluster front is draining")
        # Validate here so malformed bodies are rejected at the edge
        # with the same deterministic 400 a worker would produce.
        request = parse_run_request(body)
        digest = request.cache_digest()
        with self._inflight_cond:
            self._inflight += 1
        try:
            return self._proxy(digest, body, traceparent)
        finally:
            with self._inflight_cond:
                self._inflight -= 1
                self._inflight_cond.notify_all()

    def _proxy(
        self, digest: str, body: bytes, traceparent: Optional[str]
    ) -> _ProxyResult:
        url = self.route(digest)
        if url is None:
            self.registry.counter(UNAVAILABLE_METRIC).inc(reason="no-workers")
            return self._unavailable("no healthy workers on the ring")
        self.registry.counter(ROUTED_METRIC).inc(worker=url)
        headers = {"Content-Type": "application/json"}
        if traceparent:
            headers["traceparent"] = traceparent
        proxied = urllib.request.Request(
            f"{url}/run", data=body, headers=headers, method="POST"
        )
        try:
            with urllib.request.urlopen(
                proxied, timeout=self.config.proxy_timeout_s
            ) as response:
                return _ProxyResult(
                    status=response.status,
                    body=response.read(),
                    headers=self._forwarded(response.headers, url),
                )
        except urllib.error.HTTPError as error:
            # The worker answered (429/503/504/...): pass it through —
            # its body and Retry-After are already deterministic.
            with error:
                return _ProxyResult(
                    status=error.code,
                    body=error.read(),
                    headers=self._forwarded(error.headers, url),
                )
        except (urllib.error.URLError, OSError, TimeoutError) as error:
            # Transport failure: the worker is gone.  Rebalance the
            # ring and tell the client to retry — the retry re-routes
            # onto a surviving worker (which still sees the shared L2).
            self.registry.counter(PROXY_ERRORS_METRIC).inc(worker=url)
            self.mark_unhealthy(url, f"proxy: {error}")
            self.registry.counter(UNAVAILABLE_METRIC).inc(reason="worker-lost")
            return self._unavailable(
                "worker lost mid-request; ring rebalanced, retry"
            )

    def _forwarded(
        self, headers: Any, worker_url: str
    ) -> Tuple[Tuple[str, str], ...]:
        out: List[Tuple[str, str]] = [("X-Cluster-Worker", worker_url)]
        for name in _FORWARD_HEADERS:
            value = headers.get(name)
            if value is not None:
                out.append((name, value))
        return tuple(out)

    def _unavailable(self, message: str) -> _ProxyResult:
        payload = error_payload(503, "unavailable", message)
        payload["retry_after_s"] = self.config.retry_after_s
        return _ProxyResult(
            status=503,
            body=encode(payload),
            headers=(("Retry-After", f"{self.config.retry_after_s:g}"),),
        )

    # -- fan-out reads --------------------------------------------------
    def _fetch(self, url: str, path: str) -> Optional[bytes]:
        try:
            with urllib.request.urlopen(
                f"{url}{path}", timeout=self.config.health_timeout_s
            ) as response:
                return response.read()
        except (urllib.error.URLError, OSError):
            return None

    def health_payload(self) -> Dict[str, Any]:
        """Aggregate ``GET /healthz``: front status + per-worker states."""
        with self._lock:
            states = [
                {
                    "url": state.url,
                    "healthy": state.healthy,
                    "consecutive_failures": state.consecutive_failures,
                }
                for state in self.workers.values()
            ]
            healthy = sum(1 for s in states if s["healthy"])
        if self._draining:
            status = "draining"
        elif healthy == len(states):
            status = "ok"
        elif healthy > 0:
            status = "degraded"
        else:
            status = "down"
        return {
            "status": status,
            "workers": sorted(states, key=lambda s: s["url"]),
            "healthy_workers": healthy,
        }

    def metrics_text(self) -> str:
        """Front counters plus every live worker's scrape, merged."""
        own = self.registry.render_prometheus()
        scrapes = []
        with self._lock:
            live = [s.url for s in self.workers.values() if s.healthy]
        for url in sorted(live):
            text = self._fetch(url, "/metrics")
            if text is not None:
                scrapes.append(text.decode("utf-8"))
        return own + merge_expositions(scrapes)

    def trace_payload(self, path: str) -> Optional[bytes]:
        """Fan a ``/debug/trace/...`` read out; first worker that has it."""
        with self._lock:
            live = [s.url for s in self.workers.values() if s.healthy]
        for url in sorted(live):
            try:
                with urllib.request.urlopen(
                    f"{url}{path}", timeout=self.config.health_timeout_s
                ) as response:
                    if response.status == 200:
                        return response.read()
            except (urllib.error.URLError, OSError):
                continue
        return None

    # -- lifecycle ------------------------------------------------------
    def drain(self, *, timeout_s: Optional[float] = None) -> bool:
        """Refuse new routes, wait for in-flight proxied requests."""
        self._draining = True
        if timeout_s is None:
            timeout_s = self.config.drain_timeout_s
        with self._inflight_cond:
            return self._inflight_cond.wait_for(
                lambda: self._inflight == 0, timeout=timeout_s
            )

    def close(self) -> None:
        self._monitor_stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=2.0)
            self._monitor = None


class ClusterHandler(OneSendHandler):
    """Routes HTTP verbs to the :class:`ClusterFront` on the server."""

    server_version = "repro-cluster"

    @property
    def front(self) -> ClusterFront:
        return self.server.front  # type: ignore[attr-defined]

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        if self.path == "/healthz":
            self._send(200, encode(self.front.health_payload()))
        elif self.path == "/metrics":
            body = self.front.metrics_text().encode("utf-8")
            self._send(200, body, content_type="text/plain; charset=utf-8")
        elif self.path.startswith(("/debug/trace/", "/debug/traces", "/debug/requests")):
            body = self.front.trace_payload(self.path)
            if body is None:
                self._send(
                    404,
                    encode(
                        error_payload(404, "not-found", f"no worker has {self.path!r}")
                    ),
                )
            else:
                self._send(200, body)
        else:
            self._send(
                404,
                encode(error_payload(404, "not-found", f"no route {self.path!r}")),
            )

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        if self.path != "/run":
            self._discard_body()
            self._send(
                404,
                encode(error_payload(404, "not-found", f"no route {self.path!r}")),
            )
            return
        try:
            result = self.front.handle_run(
                self._read_body(), self.headers.get("traceparent")
            )
        except (ProtocolError, ValueError) as error:
            self._send(400, encode(error_payload(400, "bad-request", str(error))))
            return
        self._send(result.status, result.body, extra_headers=result.headers)


class ClusterServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the front for its handlers."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], front: ClusterFront):
        super().__init__(address, ClusterHandler)
        self.front = front


def make_cluster_server(
    front: ClusterFront, *, host: str | None = None, port: int | None = None
) -> ClusterServer:
    """Bind the front's HTTP server (port 0 picks a free port)."""
    if host is None:
        host = front.config.host
    if port is None:
        port = front.config.port
    return ClusterServer((host, port), front)


class LocalCluster:
    """In-process cluster: N worker services + a front, all on threads.

    Tests and ``repro loadtest --cluster`` use this to exercise the
    real HTTP routing path (every byte travels through sockets exactly
    as in production) without subprocess startup cost.  Workers share
    the process-wide run cache and — when ``store_dir`` is set — one
    L2 store directory, mirroring the deployed topology.
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        store_dir: Optional[str] = None,
        config: ClusterConfig | None = None,
        worker_config: ServiceConfig | None = None,
    ):
        if workers <= 0:
            raise ServiceError(f"cluster needs at least one worker, got {workers}")
        self.config = config if config is not None else ClusterConfig(workers=workers)
        base = worker_config if worker_config is not None else ServiceConfig()
        self.services: List[SimulationService] = []
        self.worker_servers: List[Any] = []
        self._threads: List[threading.Thread] = []
        urls: List[str] = []
        for _ in range(workers):
            service = SimulationService(
                ServiceConfig(
                    host=self.config.host,
                    port=0,
                    workers=base.workers,
                    queue_depth=base.queue_depth,
                    request_timeout_s=base.request_timeout_s,
                    telemetry=base.telemetry,
                    tracing=base.tracing,
                    store_dir=store_dir,
                    store_max_bytes=self.config.store_max_bytes,
                )
            )
            httpd = make_server(service)
            thread = threading.Thread(target=httpd.serve_forever, daemon=True)
            thread.start()
            host, port = httpd.server_address[:2]
            urls.append(f"http://{host}:{port}")
            self.services.append(service)
            self.worker_servers.append(httpd)
            self._threads.append(thread)
        self.front = ClusterFront(urls, self.config)
        self.front_server = make_cluster_server(self.front, port=0)
        self._front_thread = threading.Thread(
            target=self.front_server.serve_forever, daemon=True
        )
        self._front_thread.start()
        self.worker_urls = urls

    @property
    def url(self) -> str:
        host, port = self.front_server.server_address[:2]
        return f"http://{host}:{port}"

    def close(self) -> None:
        self.front.drain(timeout_s=5.0)
        self.front.close()
        self.front_server.shutdown()
        self.front_server.server_close()
        for httpd in self.worker_servers:
            httpd.shutdown()
            httpd.server_close()
        for service in self.services:
            service.drain(timeout_s=5.0)
            service.close()

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _free_port(host: str) -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


def _wait_healthy(url: str, *, timeout_s: float) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(f"{url}/healthz", timeout=1.0) as response:
                if response.status == 200:
                    return True
        except (urllib.error.URLError, OSError):
            pass
        time.sleep(0.1)
    return False


def run_cluster(config: ClusterConfig) -> int:
    """Foreground entry point for ``repro cluster``; blocks until signalled.

    Spawns ``config.workers`` subprocess ``repro serve`` daemons on free
    ports (all sharing ``--store-dir`` when set), fronts them with the
    router, and on SIGTERM/SIGINT drains the front, then terminates and
    reaps the workers.  Returns 0 on a clean drain.
    """
    host = config.host
    procs: List[subprocess.Popen] = []
    urls: List[str] = []
    try:
        for _ in range(config.workers):
            port = _free_port(host)
            argv = [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--host",
                host,
                "--port",
                str(port),
                "--workers",
                str(config.worker_threads),
                "--queue-depth",
                str(config.queue_depth),
            ]
            if config.request_timeout_s is not None:
                argv += ["--request-timeout", str(config.request_timeout_s)]
            if config.store_dir is not None:
                argv += [
                    "--store-dir",
                    config.store_dir,
                    "--store-max-mb",
                    str(max(1, config.store_max_bytes // (1024 * 1024))),
                ]
            procs.append(subprocess.Popen(argv))
            urls.append(f"http://{host}:{port}")
        for url in urls:
            if not _wait_healthy(url, timeout_s=30.0):
                print(f"repro cluster: worker {url} failed to start", flush=True)
                return 1
        front = ClusterFront(urls, config)
        front.start_monitor()
        httpd = make_cluster_server(front)

        def _shutdown(signum: int, frame: Any) -> None:
            front._draining = True
            threading.Thread(target=httpd.shutdown, daemon=True).start()

        previous = {
            sig: signal.signal(sig, _shutdown)
            for sig in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            fhost, fport = httpd.server_address[:2]
            print(
                f"repro cluster front on http://{fhost}:{fport} "
                f"({len(urls)} workers)",
                flush=True,
            )
            httpd.serve_forever()
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
            httpd.server_close()
        drained = front.drain()
        front.close()
        print(
            "repro cluster drained cleanly"
            if drained
            else "repro cluster drain timed out",
            flush=True,
        )
        return 0 if drained else 1
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=config.drain_timeout_s)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)
