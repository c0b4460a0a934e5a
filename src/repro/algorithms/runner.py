"""Top-level driver: run any primitive on any system variant.

``run_algorithm`` resolves the requested mode to its registered
:class:`~repro.backends.base.AcceleratorBackend`, builds a fresh system
through it, executes the requested primitive, and returns a
:class:`~repro.request.RunOutcome` bundling the result array, the
:class:`~repro.phases.RunReport` every experiment consumes, and the
simulated system.  ``execute_request`` is the same entry point driven by
a typed :class:`~repro.request.RunRequest`, and the only one the serve
daemon simulates through, one request at a time.  The tiered run cache
(``get_cached_report`` / ``put_cached_report``: an LRU in memory over an
optional on-disk L2 store) memoizes whole runs under the request's
canonical :meth:`~repro.request.RunRequest.cache_digest`, and
``cached_run`` wraps the two so one benchmark session (or a long-lived
service) can assemble all six figures without re-simulating.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..backends import get_backend
from ..core.api import PAPER_SCALE
from ..core.config import ScuConfig
from ..errors import ExperimentError
from ..graph.csr import CsrGraph
from ..graph.datasets import load_dataset
from ..obs import LruCache, Observability
from ..phases import RunReport
from ..request import RunOutcome, RunRequest
from .bfs import run_bfs
from .common import SystemMode
from .connected_components import run_connected_components
from .pagerank import run_pagerank
from .sssp import run_sssp

ALGORITHMS: Dict[str, Callable] = {
    "bfs": run_bfs,
    "sssp": run_sssp,
    "pagerank": run_pagerank,
    # extension primitive, not part of the paper's evaluation grid
    "connected_components": run_connected_components,
}

#: Paper ordering of the evaluated primitives (the experiment grid).
ALGORITHM_NAMES = ("bfs", "sssp", "pagerank")


def run_algorithm(
    algorithm: str,
    graph: CsrGraph,
    gpu_name: str,
    mode: SystemMode,
    *,
    scu_config: ScuConfig | None = None,
    memory_scale: float = PAPER_SCALE,
    obs: Observability | None = None,
    **kwargs,
) -> RunOutcome:
    """Run one (algorithm, graph, GPU, system-mode) combination.

    ``memory_scale`` defaults to :data:`~repro.core.api.PAPER_SCALE` so
    experiment runs operate in the paper's working-set regime; pass 1.0
    to model the true hardware capacities.  ``obs`` injects an
    observability bundle (see :mod:`repro.obs`) through the whole stack;
    tracing is passive and leaves every simulated number unchanged.

    Returns a :class:`~repro.request.RunOutcome`; read its ``.result``,
    ``.report`` and ``.system`` attributes.
    """
    if algorithm not in ALGORITHMS:
        known = ", ".join(ALGORITHMS)
        raise ExperimentError(f"unknown algorithm {algorithm!r}; known: {known}")
    backend = get_backend(mode)
    system = backend.build_system(
        gpu_name,
        scu_config=scu_config,
        memory_scale=memory_scale,
        obs=obs,
    )
    # The backend decides which per-phase dispatch path the drivers
    # take (the IRU runs the baseline structure; its hook lives in the
    # device's memory path); the report still names the backend.
    phase_mode = backend.phase_mode(algorithm)
    result, report = ALGORITHMS[algorithm](graph, system, phase_mode, **kwargs)
    report.system = backend.name
    return RunOutcome(result=result, report=report, system=system)


def execute_request(
    request: RunRequest, *, obs: Observability | None = None
) -> RunOutcome:
    """Execute one typed :class:`~repro.request.RunRequest`.

    The request names a registry dataset (loaded under ``request.seed``);
    its canonical ``kwargs`` are forwarded to :func:`run_algorithm`.
    This is the single execution path behind the figure drivers, the
    parallel sweep workers, and the ``repro serve`` service.
    """
    graph = load_dataset(request.dataset, seed=request.seed)
    return run_algorithm(
        request.algorithm,
        graph,
        request.gpu_name,
        request.mode,
        obs=obs,
        **dict(request.kwargs),
    )


#: LRU bound of the memoized-run cache: one benchmark session sweeps
#: 3 algorithms x 6 datasets on one GPU/mode pair at a time, so 32
#: entries cover a full figure without letting a long-lived process
#: (the ``repro serve`` daemon embedding the simulator) grow without
#: bound.
RUN_CACHE_SIZE = 32

_RUN_CACHE = LruCache(RUN_CACHE_SIZE, metrics_prefix="runner.cache")

#: Optional L2 below the in-memory run cache: a persistent,
#: content-addressed :class:`~repro.serve.store.ResultStore`.  ``None``
#: (the default) keeps the historical single-tier behaviour; the serve
#: daemon (``--store-dir``) and the CLI install one for cold-start
#: reuse.  Reads promote into L1; writes go to both tiers.
_RESULT_STORE = None


def set_result_store(store) -> None:
    """Install (or with ``None`` remove) the process-wide L2 store."""
    global _RESULT_STORE
    _RESULT_STORE = store


def get_result_store():
    """The installed L2 result store, or ``None``."""
    return _RESULT_STORE


def get_cached_report(request: RunRequest, *, with_tier: bool = False):
    """Read through the tiered cache: L1 (memory) then L2 (disk).

    An L2 hit is promoted into L1, so the disk is touched once per key
    per process lifetime under steady load.  With ``with_tier`` the
    return value is ``(report, tier)`` where tier is ``"l1"``, ``"l2"``
    or ``None`` — the serve telemetry layer uses it to attribute hits.
    """
    digest = request.cache_digest()
    report = _RUN_CACHE.get(digest)
    tier: Optional[str] = "l1" if report is not None else None
    if report is None and _RESULT_STORE is not None:
        report = _RESULT_STORE.get(request)
        if report is not None:
            tier = "l2"
            _RUN_CACHE.put(digest, report)
    if with_tier:
        return report, tier
    return report


def put_cached_report(request: RunRequest, report: RunReport) -> None:
    """Memoize a report in every tier under the request's canonical digest."""
    _RUN_CACHE.put(request.cache_digest(), report)
    if _RESULT_STORE is not None:
        _RESULT_STORE.put(request, report)


def cached_run(
    algorithm: str,
    dataset: str,
    gpu_name: str,
    mode: SystemMode,
    *,
    seed: int = 42,
) -> RunReport:
    """Memoized run on a registry dataset; returns only the report.

    The cache is LRU-bounded to :data:`RUN_CACHE_SIZE` entries and keyed
    by :meth:`RunRequest.cache_digest`; hits and misses (and evictions) are
    recorded in the process-wide metrics registry under
    ``runner.cache.*``.
    """
    request = RunRequest.make(algorithm, dataset, gpu_name, mode, seed=seed)
    report = get_cached_report(request)
    if report is None:
        report = execute_request(request).report
        put_cached_report(request, report)
    return report


def clear_run_cache() -> None:
    """Drop memoized runs (tests use this to bound memory)."""
    _RUN_CACHE.clear()
