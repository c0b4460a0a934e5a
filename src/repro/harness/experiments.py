"""Experiment drivers — one per table and figure of the paper.

Every driver sweeps (a subset of) the paper's grid of primitives x
datasets x GPU systems x system variants, pulls the phase-level reports
apart, and returns an :class:`~repro.harness.results.ExperimentResult`
whose rows mirror the original artifact.  Runs are memoized per process
so assembling all figures costs one sweep.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..algorithms.common import SystemMode
from ..algorithms.runner import ALGORITHM_NAMES, execute_request
from ..core.config import SCU_CONFIGS
from ..gpu.config import GPU_SYSTEMS
from ..graph.analysis import graph_stats
from ..graph.datasets import DATASET_NAMES, load_dataset
from ..obs import LruCache
from ..phases import Engine, PhaseKind, RunReport
from ..request import RunRequest
from ..utils import geometric_mean
from .results import ExperimentResult

GPU_NAMES: Tuple[str, ...] = ("GTX980", "TX1")

#: Bound of the shared experiment-report cache.  The full paper grid is
#: 3 algorithms x 6 datasets x 2 GPUs x 3 system modes (108 cells) plus
#: Figure 12's filtering-only variants; 256 holds a complete sweep —
#: so assembling all figures still costs one simulation per cell —
#: while keeping a long-lived process (repeated ``bench --compare``
#: invocations, a service embedding the harness) at bounded memory.
EXPERIMENT_CACHE_SIZE = 256

_MEMO = LruCache(EXPERIMENT_CACHE_SIZE, metrics_prefix="experiments.cache")


def experiment_key(
    algorithm: str, dataset: str, gpu_name: str, mode: SystemMode, **kwargs
) -> str:
    """Canonical cache key of one simulated grid cell.

    A thin convenience over :meth:`~repro.request.RunRequest.cache_digest`
    — the one key derivation shared with the runner's whole-run cache,
    the parallel sweep engine, and the ``repro serve`` service.  The
    sweep engine primes the cache under the same keys the figure
    drivers read, so the scoreboard sweep after a parallel bench is
    pure cache hits.
    """
    return RunRequest.make(algorithm, dataset, gpu_name, mode, **kwargs).cache_digest()


def _run(
    algorithm: str,
    dataset: str,
    gpu_name: str,
    mode: SystemMode,
    obs=None,
    **kwargs,
) -> RunReport:
    """Memoized simulation run on a registry dataset.

    ``obs`` threads an observability bundle into the run on a cache
    miss; it is deliberately excluded from the memo key because tracing
    is passive (the A/B determinism suite guarantees identical reports
    with and without it).  The bench runner uses this to collect a
    metrics snapshot while priming the same memo the figure drivers
    read.
    """
    request = RunRequest.make(algorithm, dataset, gpu_name, mode, **kwargs)
    key = request.cache_digest()
    report = _MEMO.get(key)
    if report is None:
        report = execute_request(request, obs=obs).report
        _MEMO.put(key, report)
    return report


def prime_experiment_cache(key: str, report: RunReport) -> None:
    """Install a report computed elsewhere (a sweep worker) under ``key``."""
    _MEMO.put(key, report)


def experiment_cache_len() -> int:
    return len(_MEMO)


def clear_experiment_cache() -> None:
    _MEMO.clear()


def _mode_for(algorithm: str, mode: SystemMode) -> SystemMode:
    """PR does not use enhanced capabilities (Section 4.6)."""
    if algorithm == "pagerank" and mode is SystemMode.SCU_ENHANCED:
        return SystemMode.SCU_BASIC
    return mode


# ---------------------------------------------------------------------------
# Figure 1 — execution-time breakdown of the GPU-only baseline
# ---------------------------------------------------------------------------


def fig1_compaction_breakdown(
    *,
    datasets: Sequence[str] = DATASET_NAMES,
    gpus: Sequence[str] = GPU_NAMES,
    algorithms: Sequence[str] = ALGORITHM_NAMES,
) -> ExperimentResult:
    """% of GPU-baseline time spent on stream compaction (Figure 1)."""
    result = ExperimentResult(
        "fig1",
        "Breakdown of execution time: stream compaction vs rest (GPU baseline)",
        ("algorithm", "gpu", "compaction_pct", "rest_pct"),
    )
    for algorithm in algorithms:
        for gpu in gpus:
            fractions = [
                _run(algorithm, ds, gpu, SystemMode.GPU).compaction_time_fraction()
                for ds in datasets
            ]
            pct = 100.0 * sum(fractions) / len(fractions)
            result.add_row(algorithm, gpu, pct, 100.0 - pct)
    result.add_note("paper: compaction takes 25-55% of execution time")
    return result


# ---------------------------------------------------------------------------
# Figures 9 and 10 — normalized energy / time with GPU-vs-SCU split
# ---------------------------------------------------------------------------


def _normalized_sweep(
    metric: str,
    *,
    datasets: Sequence[str],
    gpus: Sequence[str],
    algorithms: Sequence[str],
) -> ExperimentResult:
    figure = "fig9" if metric == "energy" else "fig10"
    what = "energy" if metric == "energy" else "execution time"
    result = ExperimentResult(
        figure,
        f"Normalized {what} of the SCU-enhanced system (baseline GPU = 1.0)",
        ("algorithm", "gpu", "dataset", "normalized", "gpu_share", "scu_share"),
    )
    for algorithm in algorithms:
        for gpu in gpus:
            for ds in datasets:
                base = _run(algorithm, ds, gpu, SystemMode.GPU)
                enh = _run(algorithm, ds, gpu, _mode_for(algorithm, SystemMode.SCU_ENHANCED))
                if metric == "energy":
                    base_total = base.total_energy_j()
                    gpu_part = enh.dynamic_energy_j(engine=Engine.GPU)
                    scu_part = enh.dynamic_energy_j(engine=Engine.SCU)
                    # static energy split by busy time share
                    total_time = enh.time_s()
                    if total_time > 0:
                        gpu_part += enh.static_energy_j * enh.time_s(engine=Engine.GPU) / total_time
                        scu_part += enh.static_energy_j * enh.time_s(engine=Engine.SCU) / total_time
                    enh_total = enh.total_energy_j()
                else:
                    base_total = base.time_s()
                    gpu_part = enh.time_s(engine=Engine.GPU)
                    scu_part = enh.time_s(engine=Engine.SCU)
                    enh_total = enh.time_s()
                normalized_total = enh_total / base_total
                result.add_row(
                    algorithm,
                    gpu,
                    ds,
                    normalized_total,
                    normalized_total * (gpu_part / enh_total if enh_total else 0.0),
                    normalized_total * (scu_part / enh_total if enh_total else 0.0),
                )
    return result


def fig9_normalized_energy(
    *,
    datasets: Sequence[str] = DATASET_NAMES,
    gpus: Sequence[str] = GPU_NAMES,
    algorithms: Sequence[str] = ALGORITHM_NAMES,
) -> ExperimentResult:
    """Figure 9: normalized energy per primitive/dataset/GPU with split."""
    result = _normalized_sweep(
        "energy", datasets=datasets, gpus=gpus, algorithms=algorithms
    )
    result.add_note("paper averages: 6.55x (GTX980) and 3.24x (TX1) energy reduction")
    return result


def fig10_normalized_time(
    *,
    datasets: Sequence[str] = DATASET_NAMES,
    gpus: Sequence[str] = GPU_NAMES,
    algorithms: Sequence[str] = ALGORITHM_NAMES,
) -> ExperimentResult:
    """Figure 10: normalized execution time per primitive/dataset/GPU."""
    result = _normalized_sweep(
        "time", datasets=datasets, gpus=gpus, algorithms=algorithms
    )
    result.add_note("paper averages: 1.37x (GTX980) and 2.32x (TX1) speedup")
    return result


# ---------------------------------------------------------------------------
# Figure 11 — basic vs enhanced SCU breakdown
# ---------------------------------------------------------------------------


def fig11_basic_vs_enhanced(
    *,
    datasets: Sequence[str] = DATASET_NAMES,
    gpus: Sequence[str] = GPU_NAMES,
    algorithms: Sequence[str] = ("bfs", "sssp"),
) -> ExperimentResult:
    """Figure 11: speedup & energy-reduction split into basic / enhanced."""
    result = ExperimentResult(
        "fig11",
        "Speedup and energy reduction: basic SCU vs + filtering/grouping",
        (
            "algorithm",
            "gpu",
            "speedup_basic",
            "speedup_enhanced",
            "energy_reduction_basic",
            "energy_reduction_enhanced",
        ),
    )
    for algorithm in algorithms:
        for gpu in gpus:
            speed_b, speed_e, energy_b, energy_e = [], [], [], []
            for ds in datasets:
                base = _run(algorithm, ds, gpu, SystemMode.GPU)
                basic = _run(algorithm, ds, gpu, SystemMode.SCU_BASIC)
                enh = _run(algorithm, ds, gpu, SystemMode.SCU_ENHANCED)
                speed_b.append(base.time_s() / basic.time_s())
                speed_e.append(base.time_s() / enh.time_s())
                energy_b.append(base.total_energy_j() / basic.total_energy_j())
                energy_e.append(base.total_energy_j() / enh.total_energy_j())
            result.add_row(
                algorithm,
                gpu,
                geometric_mean(speed_b),
                geometric_mean(speed_e),
                geometric_mean(energy_b),
                geometric_mean(energy_e),
            )
    result.add_note("paper: basic SCU alone gives ~1.5x speedup, ~2x energy reduction")
    return result


# ---------------------------------------------------------------------------
# Figure 12 — coalescing improvement from grouping
# ---------------------------------------------------------------------------


def _processing_coalescing_factor(report: RunReport) -> float:
    phases = [
        p
        for p in report.select(engine=Engine.GPU, kind=PhaseKind.PROCESSING)
        if p.memory.transactions and "contract" in p.name
    ]
    accesses = sum(p.memory.accesses for p in phases)
    transactions = sum(p.memory.transactions for p in phases)
    return accesses / transactions if transactions else 0.0


def fig12_grouping_coalescing(
    *,
    datasets: Sequence[str] = DATASET_NAMES,
    gpu: str = "TX1",
) -> ExperimentResult:
    """Figure 12: memory-coalescing improvement of grouping (SSSP, TX1).

    Baseline is the enhanced SCU with filtering only, as in the paper.
    """
    result = ExperimentResult(
        "fig12",
        f"Improvement in memory coalescing from grouping (SSSP, {gpu})",
        ("dataset", "improvement_pct"),
    )
    improvements = []
    for ds in datasets:
        filter_only = _run(
            "sssp", ds, gpu, SystemMode.SCU_ENHANCED, enable_grouping=False
        )
        grouped = _run("sssp", ds, gpu, SystemMode.SCU_ENHANCED)
        before = _processing_coalescing_factor(filter_only)
        after = _processing_coalescing_factor(grouped)
        pct = 100.0 * (after / before - 1.0) if before else 0.0
        improvements.append(pct)
        result.add_row(ds, pct)
    result.add_row("AVG", sum(improvements) / len(improvements))
    result.add_note("paper: 27% average improvement")
    return result


# ---------------------------------------------------------------------------
# Figure 13 — memory bandwidth utilization
# ---------------------------------------------------------------------------


def fig13_bandwidth_utilization(
    *,
    datasets: Sequence[str] = DATASET_NAMES,
    gpus: Sequence[str] = GPU_NAMES,
    algorithms: Sequence[str] = ALGORITHM_NAMES,
) -> ExperimentResult:
    """Figure 13: fraction of peak DRAM bandwidth each system sustains."""
    result = ExperimentResult(
        "fig13",
        "Memory bandwidth utilization (% of peak)",
        ("algorithm", "gpu", "system", "utilization_pct"),
    )
    for algorithm in algorithms:
        for gpu in gpus:
            peak = GPU_SYSTEMS[gpu].dram.peak_bandwidth_bps
            for mode, label in (
                (SystemMode.GPU, "GPU"),
                (SystemMode.SCU_ENHANCED, "SCU"),
            ):
                utilizations = []
                for ds in datasets:
                    report = _run(algorithm, ds, gpu, _mode_for(algorithm, mode))
                    elapsed = report.time_s()
                    if elapsed > 0:
                        utilizations.append(
                            100.0 * report.dram_bytes() / elapsed / peak
                        )
                result.add_row(
                    algorithm, gpu, label, sum(utilizations) / len(utilizations)
                )
    result.add_note("graph workloads fall far short of saturating DRAM bandwidth")
    return result


# ---------------------------------------------------------------------------
# Tables 1-5
# ---------------------------------------------------------------------------


def table1_scu_parameters() -> ExperimentResult:
    """Table 1: common SCU hardware parameters."""
    result = ExperimentResult(
        "table1", "SCU hardware parameters", ("parameter", "value")
    )
    for key, value in SCU_CONFIGS["GTX980"].describe_table1():
        result.add_row(key, value)
    return result


def table2_scu_scalability() -> ExperimentResult:
    """Table 2: per-GPU SCU scalability parameters."""
    result = ExperimentResult(
        "table2", "SCU scalability parameters", ("parameter", "GTX980", "TX1")
    )
    hp = dict(SCU_CONFIGS["GTX980"].describe_table2())
    lp = dict(SCU_CONFIGS["TX1"].describe_table2())
    for key in hp:
        result.add_row(key, hp[key], lp[key])
    return result


def table3_table4_gpu_parameters() -> ExperimentResult:
    """Tables 3 and 4: the two GPU system configurations."""
    result = ExperimentResult(
        "table3/4", "GPU system parameters", ("parameter", "GTX980", "TX1")
    )
    hp = dict(GPU_SYSTEMS["GTX980"].describe())
    lp = dict(GPU_SYSTEMS["TX1"].describe())
    for key in hp:
        result.add_row(key, hp[key], lp[key])
    return result


def table5_datasets(*, datasets: Sequence[str] = DATASET_NAMES) -> ExperimentResult:
    """Table 5: benchmark graph datasets (generated analogs, measured)."""
    from ..graph.datasets import DATASETS

    result = ExperimentResult(
        "table5",
        "Benchmark graph datasets (scaled analogs; paper scale in brackets)",
        ("graph", "description", "nodes_k", "edges_m", "avg_degree"),
    )
    for name in datasets:
        spec = DATASETS[name]
        stats = graph_stats(load_dataset(name))
        result.add_row(
            name,
            spec.description,
            f"{stats.num_nodes / 1e3:.1f} [{spec.paper_nodes_k:g}]",
            f"{stats.num_edges / 1e6:.3f} [{spec.paper_edges_m:g}]",
            f"{stats.average_degree:.1f} [{spec.paper_avg_degree:g}]",
        )
    return result


# ---------------------------------------------------------------------------
# SCU vs IRU head-to-head (follow-on proposal, arXiv 2007.07131)
# ---------------------------------------------------------------------------


def iru_head_to_head(
    *,
    datasets: Sequence[str] = DATASET_NAMES,
    gpus: Sequence[str] = GPU_NAMES,
    algorithms: Sequence[str] = ("bfs", "sssp"),
) -> ExperimentResult:
    """Head-to-head of the two accelerators against the GPU baseline.

    Per dataset class (geomean over traversal algorithms and GPUs):
    speedup and normalized energy of the IRU and the enhanced SCU, plus
    the IRU's coalescing-efficiency gain (accesses-per-transaction of
    the GPU-side phases vs the baseline) — the metric the reorder unit
    exists to move.  The SCU offloads compaction outright, so it should
    win every head-to-head; the IRU's counterargument is its order-of-
    magnitude smaller area (compare ``repro info``).
    """
    result = ExperimentResult(
        "iru",
        "IRU vs enhanced SCU vs GPU baseline (traversal geomeans)",
        (
            "dataset",
            "speedup_iru",
            "speedup_scu",
            "normalized_energy_iru",
            "normalized_energy_scu",
            "coalesce_gain_iru",
        ),
    )
    all_cells: dict[str, list] = {k: [] for k in
                                  ("si", "ss", "ei", "es", "ci")}
    for ds in datasets:
        cells: dict[str, list] = {k: [] for k in all_cells}
        for gpu in gpus:
            for algorithm in algorithms:
                base = _run(algorithm, ds, gpu, SystemMode.GPU)
                iru = _run(algorithm, ds, gpu, SystemMode.IRU)
                scu = _run(
                    algorithm, ds, gpu, _mode_for(algorithm, SystemMode.SCU_ENHANCED)
                )
                base_coalesce = base.memory(engine=Engine.GPU).coalescing_factor
                iru_coalesce = iru.memory(engine=Engine.GPU).coalescing_factor
                cells["si"].append(base.time_s() / iru.time_s())
                cells["ss"].append(base.time_s() / scu.time_s())
                cells["ei"].append(iru.total_energy_j() / base.total_energy_j())
                cells["es"].append(scu.total_energy_j() / base.total_energy_j())
                cells["ci"].append(iru_coalesce / base_coalesce)
        for k in all_cells:
            all_cells[k].extend(cells[k])
        result.add_row(
            ds,
            geometric_mean(cells["si"]),
            geometric_mean(cells["ss"]),
            geometric_mean(cells["ei"]),
            geometric_mean(cells["es"]),
            geometric_mean(cells["ci"]),
        )
    result.add_row(
        "AVG",
        geometric_mean(all_cells["si"]),
        geometric_mean(all_cells["ss"]),
        geometric_mean(all_cells["ei"]),
        geometric_mean(all_cells["es"]),
        geometric_mean(all_cells["ci"]),
    )
    result.add_note(
        "IRU paper reports ~1.3x average speedup at a far smaller area "
        "than the SCU; the SCU should win every head-to-head cell"
    )
    return result


# ---------------------------------------------------------------------------
# Headline summary (Section 6 numbers + area)
# ---------------------------------------------------------------------------


def headline_summary(
    *,
    datasets: Sequence[str] = DATASET_NAMES,
    gpus: Sequence[str] = GPU_NAMES,
) -> ExperimentResult:
    """The abstract's numbers: speedups, energy savings, area overhead."""
    result = ExperimentResult(
        "headline",
        "Headline results vs paper",
        ("metric", "gpu", "measured", "paper"),
    )
    paper = {
        ("speedup", "GTX980"): "1.37x",
        ("speedup", "TX1"): "2.32x",
        ("energy_savings", "GTX980"): "84.7%",
        ("energy_savings", "TX1"): "69%",
        ("area_overhead", "GTX980"): "3.3%",
        ("area_overhead", "TX1"): "4.1%",
        ("gpu_instr_reduction_bfs", "GTX980"): "~71%",
        ("gpu_instr_reduction_bfs", "TX1"): "~71%",
        ("gpu_instr_reduction_sssp", "GTX980"): "~76%",
        ("gpu_instr_reduction_sssp", "TX1"): "~76%",
    }
    for gpu in gpus:
        speedups, reductions = [], []
        for algorithm in ALGORITHM_NAMES:
            per_ds_speed, per_ds_energy = [], []
            for ds in datasets:
                base = _run(algorithm, ds, gpu, SystemMode.GPU)
                enh = _run(algorithm, ds, gpu, _mode_for(algorithm, SystemMode.SCU_ENHANCED))
                per_ds_speed.append(base.time_s() / enh.time_s())
                per_ds_energy.append(base.total_energy_j() / enh.total_energy_j())
            speedups.append(geometric_mean(per_ds_speed))
            reductions.append(geometric_mean(per_ds_energy))
        speed = geometric_mean(speedups)
        energy = geometric_mean(reductions)
        result.add_row("speedup", gpu, f"{speed:.2f}x", paper[("speedup", gpu)])
        result.add_row(
            "energy_savings",
            gpu,
            f"{100 * (1 - 1 / energy):.1f}%",
            paper[("energy_savings", gpu)],
        )
        scu = SCU_CONFIGS[gpu]
        area = 100 * scu.area_overhead_fraction(GPU_SYSTEMS[gpu].die_area_mm2)
        result.add_row("area_overhead", gpu, f"{area:.1f}%", paper[("area_overhead", gpu)])
        for algorithm in ("bfs", "sssp"):
            cuts = []
            for ds in datasets:
                base = _run(algorithm, ds, gpu, SystemMode.GPU)
                enh = _run(algorithm, ds, gpu, SystemMode.SCU_ENHANCED)
                base_instr = base.instructions(engine=Engine.GPU)
                enh_instr = enh.instructions(engine=Engine.GPU)
                if base_instr:
                    cuts.append(100.0 * (1 - enh_instr / base_instr))
            result.add_row(
                f"gpu_instr_reduction_{algorithm}",
                gpu,
                f"{sum(cuts) / len(cuts):.1f}%",
                paper[(f"gpu_instr_reduction_{algorithm}", gpu)],
            )
    return result
