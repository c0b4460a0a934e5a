"""The repository benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pagerank --seed 42 --seconds 20 --trace 0

``--workload`` is ``pagerank`` or ``traversal`` (simulator sweeps through
``repro.algorithms.runner.execute_request``) or ``serve`` (a ``repro
serve`` daemon under an open-loop HTTP client).  Every run starts fresh
processes, so set-up time, memory and the simulator's caches never leak
from one run into the next.  Outputs are checked after each timed window
and failures counted.  Timings are in reference seconds: host seconds
scaled by the host speed that a fixed calibration kernel, timed in the
same window, measures (``calibrate.py``).

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``.
``--trace 1`` runs the workload twice, untraced and then with the layer
wrappers of ``tracing.py`` installed, each for half the time, and prints
every per-layer metric, a layer table and the tracing overhead.  The
last line of standard output is always one JSON object.  Exit status is
non-zero, with no JSON printed, when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402

#: Set-up runs per sweep measurement; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Hard limit for any one child process.
CHILD_TIMEOUT_S = 170.0
OUT_DIR = ".perfbench"


def _child(script: str, tmp: str, name: str, *args: str) -> dict:
    """Run one worker process to completion and load its JSON result."""
    out = os.path.join(tmp, f"{name}.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    command = [sys.executable, os.path.join(HERE, script), *args, "--out", out]
    # A session of its own, so a timeout also ends the daemon it started.
    child = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL,
                             stdin=subprocess.DEVNULL, start_new_session=True)
    try:
        child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    if child.returncode != 0:
        raise RuntimeError(f"{script} exited with {child.returncode}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def _sweep(args, tmp: str, seconds: float, *, trace: bool = False,
           setup_only: bool = False, name: str = "main") -> dict:
    flags = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds)]
    flags += ["--trace"] if trace else []
    flags += ["--setup-only"] if setup_only else []
    # Set-up counts from here: interpreter start-up and imports included.
    flags += ["--spawned-at", repr(time.monotonic())]
    return _child("sweep.py", tmp, name, *flags)


def _serve(args, tmp: str, seconds: float, *, trace: bool = False, oracle: bool = True,
           name: str = "main") -> dict:
    work = os.path.join(tmp, name)
    os.makedirs(work)
    flags = ["--seed", str(args.seed), "--seconds", str(seconds), "--tmp", work]
    flags += ["--trace"] if trace else []
    flags += [] if oracle else ["--no-oracle"]
    return _child("serve_load.py", tmp, name, *flags)


def end_to_end(args, tmp: str) -> tuple:
    if args.workload == "serve":
        run = _serve(args, tmp, args.seconds)
        metrics = layers.serve_end_to_end(run)
        return metrics, run, layers.serve_samples(run)
    run = _sweep(args, tmp, args.seconds)
    setups = [layers.setup_s(run)] + [
        layers.setup_s(_sweep(args, tmp, 0, setup_only=True, name=f"setup{i}"))
        for i in range(1, SETUP_REPEATS)
    ]
    metrics = layers.sweep_end_to_end(run)
    metrics["setup_s"] = statistics.median(setups)
    return metrics, run, layers.sweep_samples(run, len(setups))


def per_layer(args, tmp: str) -> tuple:
    half = max(1.0, args.seconds / 2)
    if args.workload == "serve":
        plain = _serve(args, tmp, half, oracle=False, name="plain")
        traced = _serve(args, tmp, half, trace=True, name="traced")
        base = layers.serve_end_to_end(plain)["p50_ms"]
        value = layers.serve_end_to_end(traced)["p50_ms"]
        tx_per_s = 0.0
        mismatch = [key for key, digest in plain["digests"].items()
                    if traced["digests"].get(key, digest) != digest]
    else:
        plain = _sweep(args, tmp, half, name="plain")
        traced = _sweep(args, tmp, half, trace=True, name="traced")
        base = layers.sweep_end_to_end(plain)["sweep_s"]
        value = layers.sweep_end_to_end(traced)["sweep_s"]
        tx_per_s = sum(sim["mem_transactions"] for sim in plain["sims"].values()) / base
        mismatch = [label for label, sim in plain["sims"].items()
                    if traced["sims"].get(label, sim) != sim]
    metrics = layers.per_layer(
        traced, {"sim_tx_per_s": tx_per_s, "trace.overhead": value / base - 1.0}
    )
    run = {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"] + len(mismatch),
        "failures": plain["failures"] + traced["failures"]
        + [f"{key}: traced and untraced outputs differ" for key in mismatch],
    }
    return metrics, run, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=layers.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join("src", "repro")):
        print("perfbench: run from the root of a checkout (no src/repro here)", file=sys.stderr)
        return 2
    spec = layers.load_spec()
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        if args.trace:
            metrics, run, traced = per_layer(args, tmp)
            names = spec["per_layer"]
            spans = os.path.join(OUT_DIR, f"trace-{args.workload}.json")
            with open(spans, "w", encoding="utf-8") as handle:
                json.dump(traced["trace"], handle)
            print(layers.layer_table(metrics, traced["trace"]))
            print(f"span totals and the first {tracing.MAX_RECORDS} spans: {spans}")
        else:
            metrics, run, samples = end_to_end(args, tmp)
            names = spec["end_to_end"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for problem in run["failures"]:
        print(f"FAILED: {problem}")
    attempted = max(1, int(run["attempted"]))
    failed = int(run["failed"])
    if not args.trace:
        print(f"{'metric':<32} {'value':>14} {'unit':<6} samples")
        for entry in names:
            print(f"{entry['name']:<32} {metrics[entry['name']]:>14.6g} "
                  f"{entry['unit']:<6} {samples[entry['name']]}")
        print(f"timings are in reference seconds (calibrate.py): a calibration slice took "
              f"{statistics.median(run['calibration']) * 1e3:.2f} ms in the window (median) "
              f"against the {calibrate.REFERENCE_S * 1e3:.2f} ms reference")
    print(f"error_ratio {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            entry["name"]: {"value": float(metrics[entry["name"]]), "unit": entry["unit"]}
            for entry in names
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
