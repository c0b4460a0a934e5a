"""Single-Source Shortest Paths — Davidson near-far method (Section 2.2).

Each iteration expands the node frontier into edge and weight frontiers,
then contracts: edges that improve their destination's tentative
distance and fall under the cost threshold ("near") form the next
frontier; improving-but-expensive edges are pushed onto the "far" pile.
When the frontier drains, the threshold advances by delta and the far
pile is re-contracted.

System variants (Algorithms 2 and 5):

* GPU baseline — expansion gathers and the three contraction
  compactions (near frontier, far edges, far weights) are GPU kernels;
* basic SCU — those five data movements become SCU operations;
* enhanced SCU — expansion adds unique-best-cost *filtering* and
  cache-line *grouping* passes; near contraction applies grouping; the
  far-pile consumption applies both (far elements were never filtered).

Unlike BFS, the GPU-side duplicate handling here is *complete* within a
frontier (the lookup-table trick of [12]), so the enhanced SCU's wins
come from cross-copy best-cost filtering on expansion and the far pile,
plus the coalescing improvement of grouping — exactly the paper's story.
"""

from __future__ import annotations

import numpy as np

from ..core.api import ScuSystem
from ..core.ops import expansion_run, stable_order
from ..core.pipeline import expansion_addresses, gather_read, sequential_read
from ..errors import SimulationError
from ..gpu.kernel import KernelSpec
from ..graph.csr import CsrGraph
from ..mem.address_space import DeviceArray
from ..phases import PhaseKind, RunReport
from .common import (
    COMPACTION_MEMORY_EFFICIENCY,
    compaction_sync_overhead_s,
    KERNEL_COSTS,
    SCAN_OVERHEAD_PER_ELEMENT,
    GraphOnDevice,
    SystemMode,
    finalize_report,
    pick_source,
)


def _dedup_best(dests: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """Keep-mask selecting, per destination, the lowest-cost entry (of
    equal costs, the first).

    Models the contraction lookup-table: every candidate writes its id,
    atomicMin fixes the distance, and one winner per destination joins
    the next frontier.  ``dests`` holds node ids, or ``-1`` for an entry
    that is not near.  The costs are ranked (equal costs share a rank,
    and NaNs, which sort last, one rank) and packed under the
    destination, shifted by one so every key is non-negative, into one
    :func:`~repro.core.ops.stable_order`: the order of the lexsort in
    :func:`_dedup_best_reference`, which stays the spec.
    """
    if dests.size == 0:
        return np.zeros(0, dtype=bool)
    by_cost = np.argsort(costs)
    sorted_costs = costs[by_cost]
    new_cost = np.empty(costs.size, dtype=bool)
    new_cost[0] = True
    np.not_equal(sorted_costs[1:], sorted_costs[:-1], out=new_cost[1:])
    if np.isnan(sorted_costs[-1]):
        new_cost[np.argmax(np.isnan(sorted_costs)) + 1 :] = False
    rank = np.empty(costs.size, dtype=np.int64)
    rank[by_cost] = np.cumsum(new_cost) - 1
    shift = int(rank[by_cost[-1]]).bit_length()
    order, keys = stable_order((dests + 1) << shift | rank)
    keys >>= shift
    first = np.empty(dests.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keep = np.zeros(dests.size, dtype=bool)
    keep[order] = first
    return keep


def _dedup_best_reference(dests: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """Spec of :func:`_dedup_best`: the first entry of each destination
    in the lexsort by (destination, cost), stable in input order."""
    if dests.size == 0:
        return np.zeros(0, dtype=bool)
    order = np.lexsort((costs, dests))
    first = np.ones(dests.size, dtype=bool)
    first[1:] = dests[order][1:] != dests[order][:-1]
    keep = np.zeros(dests.size, dtype=bool)
    keep[order] = first
    return keep


def run_sssp(
    graph: CsrGraph,
    system: ScuSystem,
    mode: SystemMode,
    *,
    source: int | None = None,
    delta: float | None = None,
    max_rounds: int = 100_000,
    enable_grouping: bool = True,
) -> tuple[np.ndarray, RunReport]:
    """Run SSSP; returns (distances, phase-level cost report).

    ``enable_grouping=False`` gives the enhanced SCU with filtering only
    — the baseline configuration of Figure 12.
    """
    if mode is not SystemMode.GPU and not system.has_scu:
        raise SimulationError(f"mode {mode.value} requires a system with an SCU")
    if source is None:
        source = pick_source(graph)
    if delta is None:
        # Davidson tunes delta online; mean weight x small factor works
        # across our weight range and keeps round counts comparable.
        delta = max(float(np.mean(graph.weights)) if graph.num_edges else 1.0, 1.0)

    dev = GraphOnDevice.place(graph, system, np.float64(np.inf))
    dist = dev.node_data.values
    dist[source] = 0.0

    report = RunReport(algorithm="sssp", system=mode.value, dataset=graph.name)
    ctx = system.ctx
    gpu = system.gpu
    tracer = system.obs.tracer
    frontier_hist = system.obs.metrics.histogram("frontier.size")
    enhanced = mode is SystemMode.SCU_ENHANCED

    nf = np.array([source], dtype=np.int64)
    far_edges = np.empty(0, dtype=np.int64)
    far_costs = np.empty(0, dtype=np.float64)
    threshold = delta

    for _ in range(max_rounds):
        if nf.size == 0:
            if far_edges.size == 0:
                break
            with tracer.span(
                "sssp.far_pile", "algorithm", far_edges=int(far_edges.size)
            ):
                # ---- far-pile consumption -------------------------------------
                threshold += delta
                nf, far_edges, far_costs = _consume_far(
                    system, mode, dev, report, far_edges, far_costs, threshold,
                    enable_grouping=enable_grouping,
                )
            continue

        tracer.counter("frontier.size", nodes=nf.size, far=far_edges.size)
        frontier_hist.observe(nf.size, algorithm="sssp")
        with tracer.span(
            "sssp.iteration", "algorithm",
            frontier_nodes=int(nf.size), far_edges=int(far_edges.size),
            threshold=threshold,
        ):
            nf_dev = ctx.array("nf", nf)
            ef_dev, wf_dev = _expand(
                system, mode, dev, report, nf_dev, nf, enable_grouping=enable_grouping
            )
            ef = np.asarray(ef_dev.values, dtype=np.int64)
            wf = np.asarray(wf_dev.values, dtype=np.float64)
            nf, new_far_e, new_far_c = _contract(
                system, mode, dev, report, ef_dev, wf_dev, ef, wf, threshold,
                filtered_upstream=enhanced,
                enable_grouping=enable_grouping,
            )
            far_edges = np.concatenate([far_edges, new_far_e])
            far_costs = np.concatenate([far_costs, new_far_c])
    else:
        raise SimulationError("SSSP failed to converge within the round budget")

    return dist.copy(), finalize_report(report, system)


# ---------------------------------------------------------------------------


def _expand(
    system: ScuSystem,
    mode: SystemMode,
    dev: GraphOnDevice,
    report: RunReport,
    nf_dev: DeviceArray,
    nf: np.ndarray,
    *,
    enable_grouping: bool = True,
) -> tuple[DeviceArray, DeviceArray]:
    """Expansion phase: node frontier -> edge + weight frontiers."""
    ctx = system.ctx
    gpu = system.gpu
    graph = dev.graph
    dist = dev.node_data.values

    indexes_values = graph.offsets[nf]
    count_values = graph.out_degrees[nf]
    source_costs = dist[nf]
    indexes_dev = ctx.array("expand.indexes", indexes_values)
    count_dev = ctx.array("expand.count", count_values)
    cost_dev = ctx.array("expand.cost", source_costs)

    prepare = KernelSpec(
        "sssp.expand.prepare",
        PhaseKind.PROCESSING,
        threads=nf.size,
        instructions_per_thread=KERNEL_COSTS["expand.prepare"],
        extra_instructions=int(SCAN_OVERHEAD_PER_ELEMENT * nf.size),
    )
    prepare.load(nf_dev.span())
    prepare.load(dev.offsets.addresses(nf))
    prepare.load(dev.offsets.addresses(nf + 1))
    prepare.load(dev.node_data.addresses(nf))
    prepare.store(indexes_dev.span())
    prepare.store(count_dev.span())
    prepare.store(cost_dev.span())
    report.add(gpu.run(prepare))

    gather_indices, run_start = expansion_run(indexes_values, count_values)
    ef_values = graph.edges[gather_indices]
    wf_values = graph.weights[gather_indices] + np.repeat(source_costs, count_values)

    if mode is SystemMode.GPU:
        ef_dev = ctx.array("ef", ef_values)
        wf_dev = ctx.array("wf", wf_values)
        gather = KernelSpec(
            "sssp.expand.gather",
            PhaseKind.COMPACTION,
            threads=ef_values.size,
            instructions_per_thread=KERNEL_COSTS["expand.gather"],
            extra_instructions=int(SCAN_OVERHEAD_PER_ELEMENT * nf.size),
            memory_efficiency=COMPACTION_MEMORY_EFFICIENCY,
            extra_overhead_s=compaction_sync_overhead_s(gpu.config),
        )
        gather.load(indexes_dev.span())
        gather.load(count_dev.span())
        gather.load(cost_dev.span())
        gather.load(expansion_addresses(dev.edges, gather_indices, run_start))
        gather.load(expansion_addresses(dev.weights, gather_indices, run_start))
        gather.store(ef_dev.span())
        gather.store(wf_dev.span())
        dev.add_scan_traffic(gather, nf.size)
        report.add(gpu.run(gather))
        return ef_dev, wf_dev

    if mode is SystemMode.SCU_BASIC:
        ef_dev, phase = system.scu.access_expansion_compaction(
            dev.edges, indexes_dev, count_dev, out="ef"
        )
        report.add(phase)
        ew_dev, phase = system.scu.access_expansion_compaction(
            dev.weights, indexes_dev, count_dev, out="ew"
        )
        report.add(phase)
        repl_dev, phase = system.scu.replication_compaction(
            cost_dev, count_dev, out="wf"
        )
        report.add(phase)
        wf_dev = DeviceArray(values=ew_dev.values + repl_dev.values, alloc=repl_dev.alloc)
        return ef_dev, wf_dev

    # SCU_ENHANCED (Algorithm 5): filtering + grouping passes first.
    scratch_ids = ctx.array("ef.ids", ef_values)
    scratch_costs = ctx.array("wf.ids", wf_values)
    pass_streams = [
        sequential_read(indexes_dev, role="indexes"),
        sequential_read(count_dev, role="count"),
        gather_read(dev.edges, gather_indices),
        gather_read(dev.weights, gather_indices),
    ]
    filter_mask, phase = system.scu.filter_best_cost_pass(
        scratch_ids, scratch_costs, input_streams=pass_streams, out="ef.filter"
    )
    report.add(phase)
    perm_dev = None
    if enable_grouping:
        kept_ids = ctx.array("ef.kept", ef_values[filter_mask.values])
        group_streams = [
            sequential_read(indexes_dev, role="indexes"),
            sequential_read(count_dev, role="count"),
            gather_read(dev.edges, gather_indices[filter_mask.values]),
        ]
        perm_dev, phase = system.scu.grouping_pass(
            kept_ids,
            node_data_base=dev.node_data.alloc.base,
            input_streams=group_streams,
            out="ef.grouping",
        )
        report.add(phase)
    ef_dev, phase = system.scu.access_expansion_compaction(
        dev.edges,
        indexes_dev,
        count_dev,
        element_bitmask=filter_mask,
        reorder=perm_dev,
        out="ef",
    )
    report.add(phase)
    kept_costs = wf_values[filter_mask.values]
    if perm_dev is not None:
        kept_costs = kept_costs[perm_dev.values]
    ew_dev, phase = system.scu.access_expansion_compaction(
        dev.weights,
        indexes_dev,
        count_dev,
        element_bitmask=filter_mask,
        reorder=perm_dev,
        out="wf",
    )
    report.add(phase)
    # Algorithm 2's replication op (accumulated source cost) still runs.
    _, phase = system.scu.replication_compaction(cost_dev, count_dev, out="wf.repl")
    report.add(phase)
    wf_dev = DeviceArray(values=kept_costs, alloc=ew_dev.alloc)
    return ef_dev, wf_dev


def _lookup_table(system: ScuSystem, dev: GraphOnDevice) -> DeviceArray:
    """The per-node contraction lookup table, allocated once per run."""
    cache = getattr(dev, "_sssp_lookup", None)
    if cache is None:
        cache = system.ctx.array(
            "contract.lookup", np.zeros(dev.graph.num_nodes, dtype=np.int64)
        )
        dev._sssp_lookup = cache
    return cache


def _contract(
    system: ScuSystem,
    mode: SystemMode,
    dev: GraphOnDevice,
    report: RunReport,
    ef_dev: DeviceArray,
    wf_dev: DeviceArray,
    ef: np.ndarray,
    wf: np.ndarray,
    threshold: float,
    *,
    filtered_upstream: bool,
    enable_grouping: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Contraction phase: relax near edges, push far edges."""
    ctx = system.ctx
    gpu = system.gpu
    dist = dev.node_data.values

    improving = wf < dist[ef] if ef.size else np.zeros(0, dtype=bool)
    near = improving & (wf < threshold)
    far = improving & ~near
    winners = near & _dedup_best(np.where(near, ef, -1), wf)
    near_dests = ef[winners]

    process = KernelSpec(
        "sssp.contract.process",
        PhaseKind.PROCESSING,
        threads=ef.size,
        instructions_per_thread=KERNEL_COSTS["sssp.contract.process"],
    )
    process.load(ef_dev.span())
    process.load(wf_dev.span())
    process.load(dev.node_data.addresses(ef))  # divergent distance lookups
    # Lookup-table dedup: candidates scatter their thread id by dest node,
    # then re-read to learn the winner (two divergent passes).
    lookup = _lookup_table(system, dev)
    process.store(lookup.addresses(ef[near]))
    process.load(lookup.addresses(ef[near]))
    process.atomic(dev.node_data.addresses(ef[near]))  # atomicMin relaxations
    mask_near = ctx.bitmask("mask.near", winners)
    mask_far = ctx.bitmask("mask.far", far)
    process.store(mask_near.span())
    process.store(mask_far.span())
    report.add(gpu.run(process))

    # Functional relaxation (atomicMin semantics).
    if near.any():
        np.minimum.at(dist, ef[near], wf[near])

    if mode is SystemMode.GPU:
        compact = KernelSpec(
            "sssp.contract.compact",
            PhaseKind.COMPACTION,
            threads=ef.size,
            instructions_per_thread=KERNEL_COSTS["contract.compact"],
            extra_instructions=int(2 * SCAN_OVERHEAD_PER_ELEMENT * ef.size),
            memory_efficiency=COMPACTION_MEMORY_EFFICIENCY,
            extra_overhead_s=compaction_sync_overhead_s(gpu.config),
        )
        compact.load(ef_dev.span())
        compact.load(wf_dev.span())
        compact.load(mask_near.span())
        compact.load(mask_far.span())
        nf_dev = ctx.array("nf.next", near_dests)
        compact.store(nf_dev.span())
        compact.store(ctx.array("far.e", ef[far]).span())
        compact.store(ctx.array("far.w", wf[far]).span())
        dev.add_scan_traffic(compact, ef.size)
        dev.add_scan_traffic(compact, ef.size)
        report.add(gpu.run(compact))
        return near_dests, ef[far], wf[far]

    if mode is SystemMode.SCU_BASIC or filtered_upstream:
        reorder = None
        if filtered_upstream and enable_grouping:
            # Algorithm 5: grouping applies to the near contraction too.
            kept = ctx.array("near.ids", near_dests)
            perm_dev, phase = system.scu.grouping_pass(
                kept, node_data_base=dev.node_data.alloc.base, out="near.grouping"
            )
            report.add(phase)
            reorder = perm_dev
        nf_dev, phase = system.scu.data_compaction(
            ef_dev, mask_near, out="nf.next", reorder=reorder
        )
        report.add(phase)
        far_e_dev, phase = system.scu.data_compaction(ef_dev, mask_far, out="far.e")
        report.add(phase)
        far_w_dev, phase = system.scu.data_compaction(wf_dev, mask_far, out="far.w")
        report.add(phase)
        return (
            np.asarray(nf_dev.values, dtype=np.int64),
            np.asarray(far_e_dev.values, dtype=np.int64),
            np.asarray(far_w_dev.values, dtype=np.float64),
        )

    raise SimulationError(f"unhandled mode {mode}")


def _consume_far(
    system: ScuSystem,
    mode: SystemMode,
    dev: GraphOnDevice,
    report: RunReport,
    far_edges: np.ndarray,
    far_costs: np.ndarray,
    threshold: float,
    *,
    enable_grouping: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Re-contract the far pile against the advanced threshold."""
    ctx = system.ctx
    enhanced = mode is SystemMode.SCU_ENHANCED

    far_e_dev = ctx.array("far.pile.e", far_edges)
    far_w_dev = ctx.array("far.pile.w", far_costs)

    if enhanced and far_edges.size:
        # Algorithm 5: the far pile was never filtered; filter + group it
        # on the SCU before the GPU re-contracts.
        filter_mask, phase = system.scu.filter_best_cost_pass(
            far_e_dev, far_w_dev, out="far.filter"
        )
        report.add(phase)
        kept = filter_mask.values
        perm_dev = None
        if enable_grouping:
            kept_dev = ctx.array("far.kept", far_edges[kept])
            perm_dev, phase = system.scu.grouping_pass(
                kept_dev, node_data_base=dev.node_data.alloc.base, out="far.grouping"
            )
            report.add(phase)
        far_e_dev, phase = system.scu.data_compaction(
            far_e_dev, filter_mask, out="far.e.filtered", reorder=perm_dev
        )
        report.add(phase)
        far_w_dev, phase = system.scu.data_compaction(
            far_w_dev, filter_mask, out="far.w.filtered", reorder=perm_dev
        )
        report.add(phase)
        far_edges = np.asarray(far_e_dev.values, dtype=np.int64)
        far_costs = np.asarray(far_w_dev.values, dtype=np.float64)

    return _contract(
        system,
        mode,
        dev,
        report,
        far_e_dev,
        far_w_dev,
        far_edges,
        far_costs,
        threshold,
        filtered_upstream=enhanced,
        enable_grouping=enable_grouping,
    )
