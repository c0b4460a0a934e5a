"""Sweep worker: one fresh process runs one simulator sweep.

Started by ``run.py`` from the checkout root with ``src`` on the path::

    python3 perfbench/sweep.py --workload pagerank --seed 42 --seconds 10 \
        --out result.json --spawned-at <time.monotonic() of the launcher>

Set-up (imports, dataset generation, one untimed request) ends when the
timed window starts; ``--setup-only`` stops there.  A few calibration
slices (``calibrate.py``) follow set-up, untimed, to scale ``setup_s``.
The window repeats passes over the request list until ``--seconds`` have
passed (at least one full pass), timing each ``execute_request`` call
and a calibration slice after it.  All output checks run after the
window.  ``--trace`` installs the layer wrappers before set-up and adds
their totals to the output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    from repro.algorithms import runner

    import oracle
    from calibrate import SETUP_SLICES, Calibration
    from workloads import SWEEPS

    # Bound before the wrappers replace it: the sweep is the caller here,
    # and the serve layer's wrapper on this name must stay idle.
    execute = runner.execute_request
    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
    requests = SWEEPS[args.workload](args.seed)
    for dataset, seed in sorted({(request.dataset, request.seed) for request in requests}):
        runner.load_dataset(dataset, seed=seed)

    def timed(request):
        if recorder is None:
            started = time.perf_counter()
            outcome = execute(request)
            return outcome, time.perf_counter() - started
        frame = recorder.open(tracing.ROOT)
        try:
            outcome = execute(request)
        finally:
            elapsed = recorder.close(frame)
        return outcome, elapsed

    timed(requests[0])
    ready = time.monotonic()
    result = {"setup_s": ready - args.spawned_at, "peak_rss_mb": _peak_rss_mb()}
    calibration = Calibration()
    result["setup_calibration"] = [calibration.slice() for _ in range(SETUP_SLICES)]
    if not args.setup_only:
        result.update(_window(args.seconds, requests, timed, oracle, calibration))
        if recorder is not None:
            result["trace"] = tracing.snapshot(recorder)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _window(seconds: float, requests, timed, oracle, calibration) -> dict:
    """Time passes over ``requests`` for ``seconds``; then check outputs.

    A calibration slice follows every call, outside its timing.  Peak RSS
    is read when the passes end, before the checks allocate reference
    results of their own.
    """
    from repro.bench.record import SimMetrics
    from repro.gpu.config import GPU_SYSTEMS

    labels = [f"{request.label()}@{request.seed}" for request in requests]
    samples = {label: [] for label in labels}
    tries = dict.fromkeys(labels, 0)
    failed = dict.fromkeys(labels, 0)
    first = {}
    sims = {}
    failures = []
    slices = []
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        for request, label in zip(requests, labels):
            if passes and time.perf_counter() >= deadline:
                break
            tries[label] += 1
            try:
                outcome, elapsed = timed(request)
            except Exception as error:  # noqa: BLE001 — counted, reported
                failed[label] += 1
                failures.append(f"{label}: {type(error).__name__}: {error}")
                continue
            finally:
                slices.append(calibration.slice())
            samples[label].append(elapsed)
            sim = SimMetrics.from_report(
                outcome.report, gpu_clock_hz=GPU_SYSTEMS[request.gpu_name].clock_hz
            ).as_dict()
            if label not in first:
                first[label] = outcome.result
                sims[label] = sim
            elif sim != sims[label] or not oracle.same_array(
                outcome.result, first[label]
            ):
                failed[label] += 1
                failures.append(f"{label}: pass {passes} differs from pass 0")
        passes += 1
    peak_rss_mb = _peak_rss_mb()
    # Checks, outside the timed window: a wrong output fails every call.
    for request, label in zip(requests, labels):
        if label not in first:
            continue
        problems = oracle.check_result(request, first[label])
        problems += oracle.check_baseline(request, sims[label])
        if problems:
            failed[label] = tries[label]
            failures += [f"{label}: {problem}" for problem in problems]
    return {
        "peak_rss_mb": peak_rss_mb,
        "samples": samples,
        "calibration": slices,
        "sims": sims,
        "attempted": sum(tries.values()),
        "failed": sum(failed.values()),
        "failures": failures[:20],
    }


if __name__ == "__main__":
    sys.exit(main())
