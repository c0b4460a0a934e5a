"""Breadth-First Search — Merrill-style expansion/contraction (Section 2.1).

Three system variants share one functional core:

* ``SystemMode.GPU`` — the baseline: the edge-frontier gather and the
  node-frontier compaction run as GPU kernels (tagged COMPACTION so
  Figure 1's split can be measured);
* ``SystemMode.SCU_BASIC`` — Algorithm 1: those compactions are
  offloaded to the SCU;
* ``SystemMode.SCU_ENHANCED`` — Algorithm 4: the SCU additionally
  builds hash-filter bitmasks during expansion and contraction, so the
  GPU sees a nearly duplicate-free workload.  Grouping is *not* used
  for BFS (Section 4.4: it interferes with warp culling).

The baseline's duplicate handling is the paper's "best-effort" story:
a warp-level cull drops same-warp copies, the label test drops
already-visited nodes, and everything else survives to inflate the next
frontier — which is precisely the workload the SCU filtering removes.
"""

from __future__ import annotations

import numpy as np

from ..core.api import ScuSystem
from ..core.ops import expansion_run
from ..core.pipeline import expansion_addresses, gather_read, sequential_read
from ..errors import SimulationError
from ..graph.csr import CsrGraph
from ..phases import PhaseKind, RunReport
from .common import (
    KERNEL_COSTS,
    GraphOnDevice,
    SystemMode,
    best_effort_cull,
    finalize_report,
    pick_source,
    warp_cull,
)
from .reference import UNREACHED


def run_bfs(
    graph: CsrGraph,
    system: ScuSystem,
    mode: SystemMode,
    *,
    source: int | None = None,
    max_iterations: int = 10_000,
) -> tuple[np.ndarray, RunReport]:
    """Run BFS; returns (hop distances, phase-level cost report)."""
    if source is None:
        source = pick_source(graph)

    dev = GraphOnDevice.place("bfs", graph, system, mode, np.int64(UNREACHED))
    labels = dev.node_data.values
    labels[source] = 0

    ctx = system.ctx
    scu = system.scu
    tracer = system.obs.tracer
    frontier_hist = system.obs.metrics.histogram("frontier.size")

    nf_dev = ctx.array("nf", np.array([source], dtype=np.int64))
    depth = 0
    for _ in range(max_iterations):
        if nf_dev.size == 0:
            break
        depth += 1
        nf = np.asarray(nf_dev.values, dtype=np.int64)
        tracer.counter("frontier.size", nodes=nf.size)
        frontier_hist.observe(nf.size, algorithm="bfs")
        with tracer.span(
            "bfs.iteration", "algorithm", depth=depth, frontier_nodes=int(nf.size)
        ):
            # ---- expansion: prepare indexes/count on the GPU (all modes) ----
            indexes_values = graph.offsets[nf]
            count_values = graph.out_degrees[nf]
            indexes_dev = ctx.array("expand.indexes", indexes_values)
            count_dev = ctx.array("expand.count", count_values)
            dev.kernel(
                "bfs.expand.prepare", PhaseKind.PROCESSING, threads=nf.size,
                cost=KERNEL_COSTS["expand.prepare"], scan=nf.size,
                loads=(
                    nf_dev.span(),
                    dev.offsets.addresses(nf),
                    dev.offsets.addresses(nf + 1),
                ),
                stores=(indexes_dev.span(), count_dev.span()),
            )

            gather_indices, run_start = expansion_run(indexes_values, count_values)

            # ---- expansion: edge-frontier gather -------------------------------
            if mode is SystemMode.GPU:
                ef_dev = ctx.array("ef", graph.edges[gather_indices])
                dev.kernel(
                    "bfs.expand.gather", PhaseKind.COMPACTION, threads=ef_dev.size,
                    cost=KERNEL_COSTS["expand.gather"], scan=nf.size,
                    loads=(
                        indexes_dev.span(), count_dev.span(),
                        expansion_addresses(dev.edges, gather_indices, run_start),
                    ),
                    stores=(ef_dev.span(),),
                )
            elif mode is SystemMode.SCU_BASIC:
                ef_dev = dev.scu(scu.access_expansion_compaction(
                    dev.edges, indexes_dev, count_dev, out="ef"
                ))
            else:  # SCU_ENHANCED, Algorithm 4: filtering pass + filtered gather
                scratch = ctx.array("ef.ids", graph.edges[gather_indices])
                filter_mask = dev.scu(scu.filter_unique_pass(
                    scratch,
                    input_streams=[
                        sequential_read(indexes_dev, role="indexes"),
                        sequential_read(count_dev, role="count"),
                        gather_read(dev.edges, gather_indices),
                    ],
                    out="ef.filter",
                ))
                ef_dev = dev.scu(scu.access_expansion_compaction(
                    dev.edges, indexes_dev, count_dev,
                    element_bitmask=filter_mask, out="ef",
                ))

            ef = np.asarray(ef_dev.values, dtype=np.int64)
            tracer.counter("frontier.edges", edges=ef.size)
            if ef.size == 0:
                nf_dev = ctx.array("nf", np.empty(0, dtype=np.int64))
                continue

            # ---- contraction: label test + culling on the GPU (all modes) ------
            keep = (labels[ef] == UNREACHED) & warp_cull(ef) & best_effort_cull(ef)
            mask_dev = ctx.bitmask("contract.mask", keep)
            newly_visited = ef[keep]
            dev.kernel(
                "bfs.contract.process", PhaseKind.PROCESSING, threads=ef.size,
                cost=KERNEL_COSTS["contract.process"],
                # divergent label lookups
                loads=(ef_dev.span(), dev.node_data.addresses(ef)),
                stores=(dev.node_data.addresses(newly_visited), mask_dev.span()),
            )
            labels[newly_visited] = depth

            # ---- contraction: node-frontier compaction --------------------------
            if mode is SystemMode.GPU:
                nf_dev = ctx.array("nf", newly_visited)
                dev.kernel(
                    "bfs.contract.compact", PhaseKind.COMPACTION, threads=ef.size,
                    cost=KERNEL_COSTS["contract.compact"], scan=ef.size,
                    loads=(ef_dev.span(), mask_dev.span()), stores=(nf_dev.span(),),
                )
            elif mode is SystemMode.SCU_BASIC:
                nf_dev = dev.scu(scu.data_compaction(ef_dev, mask_dev, out="nf"))
            else:  # SCU_ENHANCED: extra hash-filter pass (lossy GPU cull leftovers)
                filter_mask = dev.scu(scu.filter_unique_pass(ef_dev, out="nf.filter"))
                combined = ctx.bitmask("contract.mask+filter", keep & filter_mask.values)
                nf_dev = dev.scu(scu.data_compaction(ef_dev, combined, out="nf"))
    else:
        raise SimulationError("BFS failed to converge within the iteration budget")

    return labels.copy(), finalize_report(dev.report, system)
