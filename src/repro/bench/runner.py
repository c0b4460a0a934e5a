"""The bench grid runner: sweep, measure, assemble one artifact.

Each cell of the (algorithm x dataset x GPU x system-mode) grid is
measured twice over:

* **wall-clock** — one *discarded warmup* repetition (first-call costs:
  dataset-generation caches, numpy allocator pools) followed by
  ``reps`` fresh, un-memoized simulations timed with ``perf_counter``
  (min/median/mean/IQR), tracking how fast the harness itself runs;
* **simulated** — the deterministic cost-model outputs (time, energy,
  cycles, DRAM traffic, compaction fraction) of an observed run whose
  report primes the shared experiment cache, so the scoreboard sweep
  that follows is almost free.

Cells are executed by the parallel sweep engine
(:mod:`repro.harness.parallel`): ``jobs > 1`` shards them across worker
processes with per-cell timeout, bounded retry, and in-process
fallback, then re-assembles records **in grid order** — simulated
metrics and the scoreboard are byte-identical for every ``jobs`` value.
Worker :class:`~repro.obs.metrics.MetricsRegistry` snapshots are merged
into the artifact.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, List, Optional, Sequence

from ..algorithms.common import SystemMode
from ..algorithms.runner import ALGORITHM_NAMES
from ..backends import available_modes
from ..gpu.config import GPU_SYSTEMS
from ..graph.datasets import DATASET_NAMES
from ..harness.experiments import GPU_NAMES, _mode_for
from ..harness.parallel import CellOutcome, SweepCell, sweep_cells
from ..obs import global_metrics, merge_flat_snapshots
from .record import (
    BenchArtifact,
    BenchRecord,
    SimMetrics,
    WallStats,
    collect_provenance,
)
from .scoreboard import build_scoreboard, scoreboard_payload

#: Dataset subset swept by ``--quick`` (mirrors the benchmark suite).
QUICK_DATASETS = ("delaunay", "human", "kron")

#: Default wall-clock repetitions per cell.
DEFAULT_REPS = 3


@dataclass(frozen=True)
class BenchGrid:
    """What one bench run sweeps."""

    algorithms: Sequence[str]
    datasets: Sequence[str]
    gpus: Sequence[str]
    modes: Sequence[SystemMode]
    reps: int
    quick: bool

    def cells(self):
        for algorithm in self.algorithms:
            for dataset in self.datasets:
                for gpu in self.gpus:
                    for mode in self.modes:
                        yield algorithm, dataset, gpu, mode

    def describe(self) -> dict:
        payload = asdict(self)
        payload["modes"] = [mode.value for mode in self.modes]
        payload["algorithms"] = list(self.algorithms)
        payload["datasets"] = list(self.datasets)
        payload["gpus"] = list(self.gpus)
        return payload


def default_grid(
    *,
    quick: bool = False,
    algorithms: Sequence[str] | None = None,
    datasets: Sequence[str] | None = None,
    gpus: Sequence[str] | None = None,
    reps: int = DEFAULT_REPS,
) -> BenchGrid:
    if datasets is None:
        datasets = QUICK_DATASETS if quick else DATASET_NAMES
    return BenchGrid(
        algorithms=tuple(algorithms or ALGORITHM_NAMES),
        datasets=tuple(datasets),
        gpus=tuple(gpus or GPU_NAMES),
        # every registered backend, in registry order
        modes=tuple(SystemMode(name) for name in available_modes()),
        reps=max(1, reps),
        quick=quick,
    )


def run_bench(
    grid: BenchGrid,
    *,
    tag: str,
    with_scoreboard: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
    cell_timeout_s: Optional[float] = None,
    retries: int = 1,
) -> BenchArtifact:
    """Sweep the grid (``jobs``-wide) and assemble one artifact.

    Records always land in grid order regardless of worker completion
    order; the only fields that vary between ``jobs`` settings are
    wall-clock timings (noise by contract).
    """

    def say(message: str) -> None:
        if progress is not None:
            progress(message)

    artifact = BenchArtifact(
        tag=tag, grid=grid.describe(), provenance=collect_provenance()
    )
    requested = list(grid.cells())
    cells = [
        SweepCell(
            algorithm=algorithm,
            dataset=dataset,
            gpu=gpu,
            mode=_mode_for(algorithm, mode),
            reps=grid.reps,
        )
        for algorithm, dataset, gpu, mode in requested
    ]

    def on_cell(outcome: CellOutcome, done: int, total: int) -> None:
        wall = WallStats.from_samples(
            outcome.payload.wall_samples, warmup_s=outcome.payload.warmup_s
        )
        sim_ms = outcome.payload.report.time_s() * 1e3
        suffix = ""
        if jobs > 1:
            suffix = f" (worker {outcome.worker_pid})"
        if outcome.fell_back:
            suffix = " (in-process fallback)"
        elif outcome.attempts > 1:
            suffix += f" [attempt {outcome.attempts}]"
        say(
            f"[{done}/{total}] {outcome.cell.label()}: "
            f"wall {wall.median_s * 1e3:.0f} ms, "
            f"sim {sim_ms:.3f} ms{suffix}"
        )

    outcomes = sweep_cells(
        cells,
        jobs=jobs,
        timeout_s=cell_timeout_s,
        retries=retries,
        progress=on_cell,
    )
    snapshots: List[list] = []
    for (algorithm, dataset, gpu, mode), outcome in zip(requested, outcomes):
        payload = outcome.payload
        record = BenchRecord(
            algorithm=algorithm,
            dataset=dataset,
            gpu=gpu,
            mode=mode.value,
            effective_mode=outcome.cell.mode.value,
            wall=WallStats.from_samples(
                payload.wall_samples, warmup_s=payload.warmup_s
            ),
            sim=SimMetrics.from_report(
                payload.report, gpu_clock_hz=GPU_SYSTEMS[gpu].clock_hz
            ),
        )
        artifact.records.append(record)
        snapshots.append(list(payload.metrics))
    if with_scoreboard:
        say("scoreboard: reproducing paper artifacts on the bench grid")
        table = build_scoreboard(
            datasets=grid.datasets,
            gpus=grid.gpus,
            jobs=jobs,
            cell_timeout_s=cell_timeout_s,
            retries=retries,
        )
        artifact.scoreboard = scoreboard_payload(table)
    snapshots.append(global_metrics().flat_snapshot())
    artifact.metrics = merge_flat_snapshots(snapshots)
    return artifact
