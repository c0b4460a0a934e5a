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
    KERNEL_COSTS,
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
    if source is None:
        source = pick_source(graph)
    if delta is None:
        # Davidson tunes delta online; mean weight x small factor works
        # across our weight range and keeps round counts comparable.
        delta = max(float(np.mean(graph.weights)) if graph.num_edges else 1.0, 1.0)

    dev = GraphOnDevice.place("sssp", graph, system, mode, np.float64(np.inf))
    dev.node_data.values[source] = 0.0

    ctx = system.ctx
    tracer = system.obs.tracer
    frontier_hist = system.obs.metrics.histogram("frontier.size")
    grouping = mode is SystemMode.SCU_ENHANCED and enable_grouping

    nf = np.array([source], dtype=np.int64)
    far_edges = np.empty(0, dtype=np.int64)
    far_costs = np.empty(0, dtype=np.float64)
    threshold = delta
    lookup = None  # the contraction lookup table, allocated at the first contraction

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
                    dev, lookup, far_edges, far_costs, threshold, grouping
                )
            continue

        tracer.counter("frontier.size", nodes=nf.size, far=far_edges.size)
        frontier_hist.observe(nf.size, algorithm="sssp")
        with tracer.span(
            "sssp.iteration", "algorithm",
            frontier_nodes=int(nf.size), far_edges=int(far_edges.size),
            threshold=threshold,
        ):
            ef_dev, wf_dev = _expand(dev, ctx.array("nf", nf), grouping)
            if lookup is None:
                lookup = ctx.array(
                    "contract.lookup", np.zeros(graph.num_nodes, dtype=np.int64)
                )
            nf, new_far_e, new_far_c = _contract(
                dev, lookup, ef_dev, wf_dev, threshold, grouping
            )
            far_edges = np.concatenate([far_edges, new_far_e])
            far_costs = np.concatenate([far_costs, new_far_c])
    else:
        raise SimulationError("SSSP failed to converge within the round budget")

    return dev.node_data.values.copy(), finalize_report(dev.report, system)


# ---------------------------------------------------------------------------


def _expand(
    dev: GraphOnDevice, nf_dev: DeviceArray, grouping: bool
) -> tuple[DeviceArray, DeviceArray]:
    """Expansion phase: node frontier -> edge + weight frontiers."""
    ctx = dev.system.ctx
    scu = dev.system.scu
    graph = dev.graph
    nf = nf_dev.values

    indexes_values = graph.offsets[nf]
    count_values = graph.out_degrees[nf]
    source_costs = dev.node_data.values[nf]
    indexes_dev = ctx.array("expand.indexes", indexes_values)
    count_dev = ctx.array("expand.count", count_values)
    cost_dev = ctx.array("expand.cost", source_costs)
    dev.kernel(
        "sssp.expand.prepare", PhaseKind.PROCESSING, threads=nf.size,
        cost=KERNEL_COSTS["expand.prepare"], scan=nf.size,
        loads=(
            nf_dev.span(),
            dev.offsets.addresses(nf),
            dev.offsets.addresses(nf + 1),
            dev.node_data.addresses(nf),
        ),
        stores=(indexes_dev.span(), count_dev.span(), cost_dev.span()),
    )

    gather_indices, run_start = expansion_run(indexes_values, count_values)
    ef_values = graph.edges[gather_indices]
    wf_values = graph.weights[gather_indices] + np.repeat(source_costs, count_values)

    if dev.mode is SystemMode.GPU:
        ef_dev = ctx.array("ef", ef_values)
        wf_dev = ctx.array("wf", wf_values)
        dev.kernel(
            "sssp.expand.gather", PhaseKind.COMPACTION, threads=ef_values.size,
            cost=KERNEL_COSTS["expand.gather"], scan=nf.size,
            loads=(
                indexes_dev.span(),
                count_dev.span(),
                cost_dev.span(),
                expansion_addresses(dev.edges, gather_indices, run_start),
                expansion_addresses(dev.weights, gather_indices, run_start),
            ),
            stores=(ef_dev.span(), wf_dev.span()),
        )
        return ef_dev, wf_dev

    if dev.mode is SystemMode.SCU_BASIC:
        ef_dev = dev.scu(
            scu.access_expansion_compaction(dev.edges, indexes_dev, count_dev, out="ef")
        )
        ew_dev = dev.scu(
            scu.access_expansion_compaction(dev.weights, indexes_dev, count_dev, out="ew")
        )
        repl_dev = dev.scu(scu.replication_compaction(cost_dev, count_dev, out="wf"))
        wf_dev = DeviceArray(values=ew_dev.values + repl_dev.values, alloc=repl_dev.alloc)
        return ef_dev, wf_dev

    # SCU_ENHANCED (Algorithm 5): filtering + grouping passes first.
    scratch_ids = ctx.array("ef.ids", ef_values)
    scratch_costs = ctx.array("wf.ids", wf_values)
    filter_mask = dev.scu(scu.filter_best_cost_pass(
        scratch_ids,
        scratch_costs,
        input_streams=[
            sequential_read(indexes_dev, role="indexes"),
            sequential_read(count_dev, role="count"),
            gather_read(dev.edges, gather_indices),
            gather_read(dev.weights, gather_indices),
        ],
        out="ef.filter",
    ))
    kept = filter_mask.values
    perm_dev = None
    if grouping:
        perm_dev = dev.scu(scu.grouping_pass(
            ctx.array("ef.kept", ef_values[kept]),
            node_data_base=dev.node_data.alloc.base,
            input_streams=[
                sequential_read(indexes_dev, role="indexes"),
                sequential_read(count_dev, role="count"),
                gather_read(dev.edges, gather_indices[kept]),
            ],
            out="ef.grouping",
        ))
    ef_dev = dev.scu(scu.access_expansion_compaction(
        dev.edges, indexes_dev, count_dev,
        element_bitmask=filter_mask, reorder=perm_dev, out="ef",
    ))
    kept_costs = wf_values[kept]
    if perm_dev is not None:
        kept_costs = kept_costs[perm_dev.values]
    ew_dev = dev.scu(scu.access_expansion_compaction(
        dev.weights, indexes_dev, count_dev,
        element_bitmask=filter_mask, reorder=perm_dev, out="wf",
    ))
    # Algorithm 2's replication op (accumulated source cost) still runs.
    dev.scu(scu.replication_compaction(cost_dev, count_dev, out="wf.repl"))
    return ef_dev, DeviceArray(values=kept_costs, alloc=ew_dev.alloc)


def _contract(
    dev: GraphOnDevice,
    lookup: DeviceArray,
    ef_dev: DeviceArray,
    wf_dev: DeviceArray,
    threshold: float,
    grouping: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Contraction phase: relax near edges, push far edges."""
    ctx = dev.system.ctx
    scu = dev.system.scu
    dist = dev.node_data.values
    ef = np.asarray(ef_dev.values, dtype=np.int64)
    wf = np.asarray(wf_dev.values, dtype=np.float64)

    improving = wf < dist[ef] if ef.size else np.zeros(0, dtype=bool)
    near = improving & (wf < threshold)
    far = improving & ~near
    winners = near & _dedup_best(np.where(near, ef, -1), wf)
    near_dests = ef[winners]

    # Stores and loads interleave, so this kernel names its streams itself.
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
    process.store(lookup.addresses(ef[near]))
    process.load(lookup.addresses(ef[near]))
    process.atomic(dev.node_data.addresses(ef[near]))  # atomicMin relaxations
    mask_near = ctx.bitmask("mask.near", winners)
    mask_far = ctx.bitmask("mask.far", far)
    process.store(mask_near.span())
    process.store(mask_far.span())
    dev.report.add(dev.system.gpu.run(process))

    # Functional relaxation (atomicMin semantics).
    if near.any():
        np.minimum.at(dist, ef[near], wf[near])

    if dev.mode is SystemMode.GPU:
        dev.kernel(
            "sssp.contract.compact", PhaseKind.COMPACTION, threads=ef.size,
            cost=KERNEL_COSTS["contract.compact"], scan=ef.size, passes=2,
            loads=(ef_dev.span(), wf_dev.span(), mask_near.span(), mask_far.span()),
            stores=(
                ctx.array("nf.next", near_dests).span(),
                ctx.array("far.e", ef[far]).span(),
                ctx.array("far.w", wf[far]).span(),
            ),
        )
        return near_dests, ef[far], wf[far]

    reorder = None
    if grouping:
        # Algorithm 5: grouping applies to the near contraction too.
        reorder = dev.scu(scu.grouping_pass(
            ctx.array("near.ids", near_dests),
            node_data_base=dev.node_data.alloc.base,
            out="near.grouping",
        ))
    nf_dev = dev.scu(
        scu.data_compaction(ef_dev, mask_near, out="nf.next", reorder=reorder)
    )
    far_e_dev = dev.scu(scu.data_compaction(ef_dev, mask_far, out="far.e"))
    far_w_dev = dev.scu(scu.data_compaction(wf_dev, mask_far, out="far.w"))
    return (
        np.asarray(nf_dev.values, dtype=np.int64),
        np.asarray(far_e_dev.values, dtype=np.int64),
        np.asarray(far_w_dev.values, dtype=np.float64),
    )


def _consume_far(
    dev: GraphOnDevice,
    lookup: DeviceArray,
    far_edges: np.ndarray,
    far_costs: np.ndarray,
    threshold: float,
    grouping: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Re-contract the far pile against the advanced threshold."""
    ctx = dev.system.ctx
    scu = dev.system.scu
    far_e_dev = ctx.array("far.pile.e", far_edges)
    far_w_dev = ctx.array("far.pile.w", far_costs)

    if dev.mode is SystemMode.SCU_ENHANCED and far_edges.size:
        # Algorithm 5: the far pile was never filtered; filter + group it
        # on the SCU before the GPU re-contracts.
        filter_mask = dev.scu(
            scu.filter_best_cost_pass(far_e_dev, far_w_dev, out="far.filter")
        )
        perm_dev = None
        if grouping:
            perm_dev = dev.scu(scu.grouping_pass(
                ctx.array("far.kept", far_edges[filter_mask.values]),
                node_data_base=dev.node_data.alloc.base,
                out="far.grouping",
            ))
        far_e_dev = dev.scu(scu.data_compaction(
            far_e_dev, filter_mask, out="far.e.filtered", reorder=perm_dev
        ))
        far_w_dev = dev.scu(scu.data_compaction(
            far_w_dev, filter_mask, out="far.w.filtered", reorder=perm_dev
        ))

    return _contract(dev, lookup, far_e_dev, far_w_dev, threshold, grouping)
