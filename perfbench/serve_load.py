"""Serve worker: one ``repro serve`` daemon under an open-loop client.

    python3 perfbench/serve_load.py --seed 42 --seconds 10 --out result.json \
        --tmp DIR [--trace] [--no-oracle]

Set-up is daemon spawn, ``/healthz`` and priming every population key
(lowest zipf ranks last, so the head sits in the L1 run cache).  The open
loop then sends the seeded schedule at ``OFFERED_RPS`` through
``CONNECTIONS`` connections, timing each request from its due time, and
reads the daemon's CPU time before and after it.  After the window the
daemon is drained with SIGTERM and, unless ``--no-oracle``, every key
served is simulated again in this process and its bytes compared with
what the daemon served.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from calibrate import Calibration  # noqa: E402
from workloads import CONNECTIONS, serve_schedule  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
#: A request taking longer than this is abandoned and counted as failed.
CLIENT_TIMEOUT_S = 30.0
STARTUP_TIMEOUT_S = 60.0
#: Calibration slices just before and just after the open-loop window,
#: while the daemon is idle (slices during it would take a core from it),
#: each set after a few untimed ones: the first slices after other work
#: run up to a third slower while the caches refill.
BRACKET_SLICES = 16
WARMUP_SLICES = 4


class Client:
    """POSTs run requests; remembers one body digest per key.

    Every request opens a connection of its own.  A reused (keep-alive)
    connection stalls each response by the peer's delayed ACK, about
    40 ms: the daemon writes headers and body in separate sends with
    Nagle's algorithm on.
    """

    def __init__(self, port: int):
        self.port = port
        self.digests: Dict[str, str] = {}
        self.counts: Dict[str, int] = {}
        self.failures: List[str] = []
        self.attempted = 0
        self._lock = threading.Lock()

    def post(self, request) -> bool:
        """Send one request; False if it failed (counted in ``failures``)."""
        body = json.dumps(request.to_dict()).encode("utf-8")
        key = request.cache_digest()
        status = None
        digest = None
        try:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=CLIENT_TIMEOUT_S)
            try:
                conn.request("POST", "/run", body, {"Content-Type": "application/json"})
                response = conn.getresponse()
                payload = response.read()
                status = response.status
            finally:
                conn.close()
            digest = hashlib.sha256(payload).hexdigest()
        except (OSError, http.client.HTTPException) as error:
            problem = f"{request.label()}: {type(error).__name__}: {error}"
        else:
            problem = None if status == 200 else f"{request.label()}: HTTP {status}"
        with self._lock:
            self.attempted += 1
            if problem is None:
                self.counts[key] = self.counts.get(key, 0) + 1
                known = self.digests.setdefault(key, digest)
                if known != digest:
                    problem = f"{request.label()}: body differs from an earlier body"
            if problem is not None:
                self.failures.append(problem)
        return problem is None


def open_loop(client: Client, sends) -> dict:
    """Send each request at its due time; latency counts from the due time.

    ``CONNECTIONS`` threads take the requests in order; with every due
    time 0 this is a closed loop.
    """
    latencies: List[Optional[float]] = [None] * len(sends)
    lags = [0.0] * len(sends)
    wire = [0.0] * len(sends)
    position = iter(range(len(sends)))
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def work():
        while True:
            with lock:
                index = next(position, None)
            if index is None:
                return
            due = start + sends[index][0]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            ok = client.post(sends[index][1])
            done = time.perf_counter()
            lags[index] = sent - due
            wire[index] = done - sent
            if ok:
                latencies[index] = done - due

    threads = [threading.Thread(target=work, daemon=True) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"latencies": latencies, "lags": lags, "client_s": wire}


def _wait_ready(daemon: subprocess.Popen) -> int:
    """Read the daemon's port from its banner, then poll ``/healthz``."""
    line = daemon.stdout.readline().decode("utf-8", "replace")
    if "listening on" not in line:
        raise RuntimeError(f"daemon did not start: {line.strip()!r}")
    port = int(line.rsplit(":", 1)[1])
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    while True:
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
            conn.request("GET", "/healthz")
            if conn.getresponse().status == 200:
                conn.close()
                return port
            conn.close()
        except OSError:
            pass
        if time.monotonic() > deadline:
            raise RuntimeError("daemon never answered /healthz")
        time.sleep(0.05)


def _bracket(calibration: Calibration) -> List[float]:
    times = [calibration.slice() for _ in range(WARMUP_SLICES + BRACKET_SLICES)]
    return times[WARMUP_SLICES:]


def cpu_s(pid: int) -> float:
    """User plus system CPU seconds ``pid`` has used so far."""
    with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--no-oracle", action="store_true")
    args = parser.parse_args(argv)

    schedule = serve_schedule(args.seed, args.seconds)
    requests = {r.cache_digest(): r for r in schedule.population}
    requests.update({r.cache_digest(): r for _, r in schedule.sends})
    trace_out = os.path.join(args.tmp, "daemon-trace.json")
    command = [sys.executable, os.path.join(HERE, "daemon.py"),
               "--store-dir", os.path.join(args.tmp, "store")]
    if args.trace:
        command += ["--trace-out", trace_out]
    spawned = time.monotonic()
    daemon = subprocess.Popen(command, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
    try:
        port = _wait_ready(daemon)
        client = Client(port)
        # Prime from the tail up so the zipf head ends in the L1 run cache.
        open_loop(client, [(0.0, request) for request in reversed(schedule.population)])
        setup_s = time.monotonic() - spawned
        calibration = Calibration()
        slices = _bracket(calibration)
        if args.trace:
            time.sleep(0.1)
            daemon.send_signal(signal.SIGUSR1)
            time.sleep(0.1)
        cpu_before = cpu_s(daemon.pid)
        window = open_loop(client, schedule.sends)
        window["daemon_cpu_s"] = cpu_s(daemon.pid) - cpu_before
        rss = peak_rss_mb(daemon.pid)
        slices += _bracket(calibration)
    finally:
        if daemon.poll() is None:
            daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=STARTUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()
        daemon.stdout.close()
    if daemon.returncode != 0:
        client.failures.append(f"daemon exited with {daemon.returncode}")
    mismatched = {}
    if not args.no_oracle:
        from oracle import expected_body

        for key, digest in client.digests.items():
            if hashlib.sha256(expected_body(requests[key])).hexdigest() != digest:
                mismatched[key] = requests[key].label()
    failed = len(client.failures) + sum(client.counts[key] for key in mismatched)
    result = {
        "setup_s": setup_s,
        "calibration": slices,
        "window": window,
        "peak_rss_mb": rss,
        "attempted": client.attempted,
        "failed": failed,
        "failures": (client.failures + [f"{label}: body differs from a fresh simulation"
                                        for label in mismatched.values()])[:20],
        "digests": client.digests,
    }
    if args.trace:
        with open(trace_out, encoding="utf-8") as handle:
            result["trace"] = json.load(handle)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
