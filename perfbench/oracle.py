"""Output checks.  They run outside every timed window.

Simulated statistics are checked for *identity* (against the committed
baseline at its seed, across passes, and between traced and untraced
runs), never for accuracy: paper fidelity is the ``repro bench``
scoreboard's job.  Algorithm outputs are checked against the plain CPU
references in :mod:`repro.algorithms.reference` at the tolerances the
tier-1 tests use.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from typing import Dict, List

import numpy as np

#: Seed at which ``benchmarks/baseline_quick.json`` was recorded.
BASELINE_SEED = 42
BASELINE = os.path.join("benchmarks", "baseline_quick.json")


@lru_cache(maxsize=1)
def baseline_rows() -> Dict[tuple, dict]:
    with open(BASELINE, encoding="utf-8") as handle:
        records = json.load(handle)["records"]
    return {
        (row["algorithm"], row["dataset"], row["gpu"], row["mode"]): row["sim"]
        for row in records
    }


def check_baseline(request, sim: dict, rows=None) -> List[str]:
    """At the baseline seed, the simulated metrics must equal the row."""
    if request.seed != BASELINE_SEED or request.kwargs:
        return []
    if rows is None:
        rows = baseline_rows()
    key = (request.algorithm, request.dataset, request.gpu_name, request.mode.value)
    row = rows.get(key)
    if row is None:
        return [f"no baseline row for {key}"]
    diff = sorted(name for name in row if row[name] != sim.get(name))
    return [f"differs from baseline in {', '.join(diff)}"] if diff else []


def same_array(a, b) -> bool:
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


def check_result(request, result) -> List[str]:
    """Compare one run's output array with the CPU reference."""
    from repro.algorithms import (
        bfs_reference,
        pagerank_reference,
        pick_source,
        sssp_reference,
    )
    from repro.graph.datasets import load_dataset

    graph = load_dataset(request.dataset, seed=request.seed)
    kwargs = dict(request.kwargs)
    result = np.asarray(result)
    if request.algorithm == "bfs":
        expected = bfs_reference(graph, kwargs.get("source", pick_source(graph)))
        ok = np.array_equal(result, expected)
    elif request.algorithm == "sssp":
        expected = sssp_reference(graph, kwargs.get("source", pick_source(graph)))
        reached = ~np.isinf(expected)
        ok = np.array_equal(np.isinf(result), ~reached) and np.allclose(
            result[reached], expected[reached]
        )
    elif request.algorithm == "pagerank":
        expected = pagerank_reference(graph, epsilon=1e-7)
        ok = np.allclose(result, expected, rtol=1e-2, atol=1e-3)
    else:
        return [f"no reference for {request.algorithm}"]
    return [] if ok else ["result differs from the CPU reference"]


def expected_body(request) -> bytes:
    """What the service must answer for ``request``: a fresh simulation."""
    from repro.algorithms.runner import execute_request
    from repro.serve.protocol import encode, run_response

    return encode(run_response(request, execute_request(request).report))

