"""PageRank — Geil et al.'s four-phase formulation (Section 2.3).

Every iteration touches all nodes and edges: expansion builds the edge
and weight (rank-contribution) frontiers, rank-update atomically
accumulates contributions per destination, dampening applies the factor,
and the convergence check compares against the previous iteration.

The SCU offloads only the expansion's stream compaction (Algorithm 3);
filtering and grouping do not apply (Section 4.6: all nodes stay active
and the access pattern is already regular), so the enhanced variant is
the basic one.  On the GTX980 the paper reports a small *slowdown* —
the SCU's sequential pipeline cannot beat 16 SMs at an already-regular
gather — while the TX1 still gains slightly.

Because every node stays active, the rank update's atomic scatter hits
the same addresses (each edge's destination rank, in CSR order) in every
iteration: it is priced once per run
(:meth:`~repro.gpu.device.GpuDevice.price`) and that cost is issued in
each ``pr.rank_update`` launch.  The SCU's whole-graph expansion selects
back-to-back adjacency ranges, so its data gather is one sequential walk.
"""

from __future__ import annotations

import numpy as np

from ..core.api import ScuSystem
from ..errors import SimulationError
from ..gpu.kernel import KernelSpec, atomic_stream
from ..graph.csr import CsrGraph
from ..phases import PhaseKind, RunReport
from .common import (
    COMPACTION_MEMORY_EFFICIENCY,
    compaction_sync_overhead_s,
    KERNEL_COSTS,
    SCAN_OVERHEAD_PER_ELEMENT,
    GraphOnDevice,
    SystemMode,
    finalize_report,
)

#: The paper's dampening constant role; 0.15 in the score formulation
#: ``score = alpha + (1 - alpha) * incoming``.
DEFAULT_ALPHA = 0.15


def run_pagerank(
    graph: CsrGraph,
    system: ScuSystem,
    mode: SystemMode,
    *,
    alpha: float = DEFAULT_ALPHA,
    epsilon: float = 1e-4,
    max_iterations: int = 60,
) -> tuple[np.ndarray, RunReport]:
    """Run PageRank; returns (scores, phase-level cost report)."""
    if mode is not SystemMode.GPU and not system.has_scu:
        raise SimulationError(f"mode {mode.value} requires a system with an SCU")
    if not 0.0 < alpha < 1.0:
        raise SimulationError(f"alpha must be in (0, 1), got {alpha}")

    dev = GraphOnDevice.place(graph, system, np.float64(1.0))
    ranks = dev.node_data.values

    report = RunReport(algorithm="pagerank", system=mode.value, dataset=graph.name)
    ctx = system.ctx
    gpu = system.gpu
    tracer = system.obs.tracer

    n = graph.num_nodes
    degrees = graph.out_degrees
    indexes_dev = ctx.array("pr.indexes", graph.offsets[:-1])
    count_dev = ctx.array("pr.count", degrees)
    prev_ranks_dev = ctx.array("pr.prev", ranks.copy())
    # atomicAdd per edge onto its destination's rank: the same stream in
    # every iteration, so it is priced once.
    scatter = gpu.price(atomic_stream(dev.node_data.addresses(graph.edges)))

    converged = False
    for iteration in range(max_iterations):
        with tracer.span("pr.iteration", "algorithm", iteration=iteration):
            # ---- expansion preparation (GPU, all modes) ------------------------
            contributions = np.where(degrees > 0, ranks / np.maximum(degrees, 1), 0.0)
            contrib_dev = ctx.array("pr.contrib", contributions)
            prepare = KernelSpec(
                "pr.expand.prepare",
                PhaseKind.PROCESSING,
                threads=n,
                instructions_per_thread=KERNEL_COSTS["expand.prepare"],
                extra_instructions=int(SCAN_OVERHEAD_PER_ELEMENT * n),
            )
            prepare.load(dev.offsets.span(0, n))
            prepare.load(dev.offsets.span(1, n))
            prepare.load(dev.node_data.span())
            prepare.store(contrib_dev.span())
            report.add(gpu.run(prepare))

            ef_values = graph.edges

            # ---- expansion gather: the PR compaction workload -------------------
            if mode is SystemMode.GPU:
                wf_values = np.repeat(contributions, degrees)
                ef_dev = ctx.array("pr.ef", ef_values)
                wf_dev = ctx.array("pr.wf", wf_values)
                gather = KernelSpec(
                    "pr.expand.gather",
                    PhaseKind.COMPACTION,
                    threads=ef_values.size,
                    instructions_per_thread=KERNEL_COSTS["expand.gather"],
                    extra_instructions=int(SCAN_OVERHEAD_PER_ELEMENT * n),
                    memory_efficiency=COMPACTION_MEMORY_EFFICIENCY,
                    extra_overhead_s=compaction_sync_overhead_s(gpu.config),
                )
                gather.load(indexes_dev.span())
                gather.load(count_dev.span())
                gather.load(dev.edges.span())  # every node's edges, in CSR order
                gather.load(contrib_dev.span())
                gather.store(ef_dev.span())
                gather.store(wf_dev.span())
                dev.add_scan_traffic(gather, n)
                report.add(gpu.run(gather))
            else:  # SCU offload (Algorithm 3): expansion + replication
                ef_dev, phase = system.scu.access_expansion_compaction(
                    dev.edges, indexes_dev, count_dev, out="pr.ef"
                )
                report.add(phase)
                wf_dev, phase = system.scu.replication_compaction(
                    contrib_dev, count_dev, out="pr.wf"
                )
                report.add(phase)
                wf_values = wf_dev.values

            # ---- rank update (GPU, all modes): atomicAdd per edge ---------------
            # bincount adds the weights in input order, as the atomics'
            # np.add.at spec in reference.py does: the same float sums.
            incoming = np.bincount(ef_values, weights=wf_values, minlength=n)
            update = KernelSpec(
                "pr.rank_update",
                PhaseKind.PROCESSING,
                threads=ef_values.size,
                instructions_per_thread=KERNEL_COSTS["pr.rank_update"],
            )
            update.load(ef_dev.span())
            update.load(wf_dev.span())
            update.priced(scatter)
            report.add(gpu.run(update))

            # ---- dampening (GPU, all modes) --------------------------------------
            new_ranks = alpha + (1.0 - alpha) * incoming
            dampen = KernelSpec(
                "pr.dampen",
                PhaseKind.PROCESSING,
                threads=n,
                instructions_per_thread=KERNEL_COSTS["pr.dampen"],
            )
            dampen.load(dev.node_data.span())
            dampen.store(dev.node_data.span())
            report.add(gpu.run(dampen))

            # ---- convergence check (GPU, all modes) ------------------------------
            delta = float(np.max(np.abs(new_ranks - ranks))) if n else 0.0
            check = KernelSpec(
                "pr.convergence",
                PhaseKind.PROCESSING,
                threads=n,
                instructions_per_thread=KERNEL_COSTS["pr.convergence"],
            )
            check.load(dev.node_data.span())
            check.load(prev_ranks_dev.span())
            report.add(gpu.run(check))

            ranks[:] = new_ranks
            tracer.counter("pr.delta", delta=delta)
        if delta < epsilon:
            converged = True
            break

    if not converged:
        raise SimulationError(
            f"PageRank did not converge within {max_iterations} iterations"
        )
    return ranks.copy(), finalize_report(report, system)
