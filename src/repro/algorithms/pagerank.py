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
    KERNEL_COSTS,
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
    if not 0.0 < alpha < 1.0:
        raise SimulationError(f"alpha must be in (0, 1), got {alpha}")

    dev = GraphOnDevice.place("pagerank", graph, system, mode, np.float64(1.0))
    ranks = dev.node_data.values

    ctx = system.ctx
    gpu = system.gpu
    scu = system.scu
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
            dev.kernel(
                "pr.expand.prepare", PhaseKind.PROCESSING, threads=n,
                cost=KERNEL_COSTS["expand.prepare"], scan=n,
                loads=(
                    dev.offsets.span(0, n), dev.offsets.span(1, n), dev.node_data.span()
                ),
                stores=(contrib_dev.span(),),
            )

            ef_values = graph.edges

            # ---- expansion gather: the PR compaction workload -------------------
            if mode is SystemMode.GPU:
                wf_values = np.repeat(contributions, degrees)
                ef_dev = ctx.array("pr.ef", ef_values)
                wf_dev = ctx.array("pr.wf", wf_values)
                dev.kernel(
                    "pr.expand.gather", PhaseKind.COMPACTION, threads=ef_values.size,
                    cost=KERNEL_COSTS["expand.gather"], scan=n,
                    loads=(
                        indexes_dev.span(),
                        count_dev.span(),
                        dev.edges.span(),  # every node's edges, in CSR order
                        contrib_dev.span(),
                    ),
                    stores=(ef_dev.span(), wf_dev.span()),
                )
            else:  # SCU offload (Algorithm 3): expansion + replication
                ef_dev = dev.scu(scu.access_expansion_compaction(
                    dev.edges, indexes_dev, count_dev, out="pr.ef"
                ))
                wf_dev = dev.scu(
                    scu.replication_compaction(contrib_dev, count_dev, out="pr.wf")
                )
                wf_values = wf_dev.values

            # ---- rank update (GPU, all modes): atomicAdd per edge ---------------
            # bincount adds the weights in input order, as the atomics'
            # np.add.at spec in reference.py does: the same float sums.
            incoming = np.bincount(ef_values, weights=wf_values, minlength=n)
            # The scatter is issued priced, so this kernel names its streams.
            update = KernelSpec(
                "pr.rank_update",
                PhaseKind.PROCESSING,
                threads=ef_values.size,
                instructions_per_thread=KERNEL_COSTS["pr.rank_update"],
            )
            update.load(ef_dev.span())
            update.load(wf_dev.span())
            update.priced(scatter)
            dev.report.add(gpu.run(update))

            # ---- dampening (GPU, all modes) --------------------------------------
            new_ranks = alpha + (1.0 - alpha) * incoming
            dev.kernel(
                "pr.dampen", PhaseKind.PROCESSING, threads=n,
                cost=KERNEL_COSTS["pr.dampen"],
                loads=(dev.node_data.span(),), stores=(dev.node_data.span(),),
            )

            # ---- convergence check (GPU, all modes) ------------------------------
            delta = float(np.max(np.abs(new_ranks - ranks))) if n else 0.0
            dev.kernel(
                "pr.convergence", PhaseKind.PROCESSING, threads=n,
                cost=KERNEL_COSTS["pr.convergence"],
                loads=(dev.node_data.span(), prev_ranks_dev.span()),
            )

            ranks[:] = new_ranks
            tracer.counter("pr.delta", delta=delta)
        if delta < epsilon:
            converged = True
            break

    if not converged:
        raise SimulationError(
            f"PageRank did not converge within {max_iterations} iterations"
        )
    return ranks.copy(), finalize_report(dev.report, system)
