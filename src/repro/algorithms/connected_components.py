"""Connected Components — an extension primitive beyond the paper's three.

The paper evaluates BFS, SSSP and PR but argues the SCU serves "graph
processing" generally; label-propagation connected components is the
natural fourth primitive: it is frontier-driven like BFS (so the SCU's
expansion/compaction offload and duplicate filtering apply directly)
but *monotone on labels* rather than on visitation, which exercises the
unique-best-cost filter with a different semantics — the "cost" is the
candidate component label, and lower labels win.

Algorithm (hook-free label propagation):

* every node starts in its own component (label = node id);
* the frontier holds nodes whose label just dropped;
* expansion pushes ``min(label[u])`` along edges; contraction keeps
  destinations whose label improves, exactly like SSSP's near pile with
  an always-zero threshold.

Validated against NetworkX / the union-find reference below.
"""

from __future__ import annotations

import numpy as np

from ..core.ops import expansion_run
from ..core.pipeline import expansion_addresses
from ..core.api import ScuSystem
from ..errors import SimulationError
from ..graph.csr import CsrGraph
from ..phases import PhaseKind, RunReport
from .common import (
    KERNEL_COSTS,
    GraphOnDevice,
    SystemMode,
    finalize_report,
)


def connected_components_reference(graph: CsrGraph) -> np.ndarray:
    """Union-find reference labelling (weak connectivity, min-id labels)."""
    parent = np.arange(graph.num_nodes, dtype=np.int64)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    sources = graph.edge_sources()
    for u, v in zip(sources.tolist(), graph.edges.tolist()):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return np.asarray([find(i) for i in range(graph.num_nodes)], dtype=np.int64)


def connected_components_labels(graph: CsrGraph) -> np.ndarray:
    """Vectorized weak-connectivity labelling (pointer jumping).

    Byte-identical to :func:`connected_components_reference`: every node
    is labelled with the minimum node id of its weakly-connected
    component.  Each round propagates labels across edges in both
    directions with ``np.minimum.at`` and then compresses chains by
    pointer jumping (``labels = labels[labels]``); since ``labels[x] <=
    x`` is invariant, both steps are monotone and the fixpoint is
    reached in O(log diameter) rounds.
    """
    labels = np.arange(graph.num_nodes, dtype=np.int64)
    if graph.num_nodes == 0:
        return labels
    sources = graph.edge_sources()
    targets = np.asarray(graph.edges, dtype=np.int64)
    while True:
        before = labels.copy()
        np.minimum.at(labels, sources, labels[targets])
        np.minimum.at(labels, targets, labels[sources])
        # Pointer jumping: labels[x] <= x, so labels[labels] only drops.
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        if np.array_equal(labels, before):
            return labels


def run_connected_components(
    graph: CsrGraph,
    system: ScuSystem,
    mode: SystemMode,
    *,
    max_iterations: int = 10_000,
) -> tuple[np.ndarray, RunReport]:
    """Run label-propagation CC; returns (labels, cost report).

    Note: labels converge to the minimum *reachable* id only when edges
    are symmetric (weak connectivity on an undirected graph) — which all
    Table 5 analogs are.
    """
    dev = GraphOnDevice.place("connected_components", graph, system, mode, np.int64(0))
    labels = dev.node_data.values
    labels[:] = np.arange(graph.num_nodes, dtype=np.int64)

    ctx = system.ctx
    scu = system.scu
    tracer = system.obs.tracer
    frontier_hist = system.obs.metrics.histogram("frontier.size")

    frontier = np.arange(graph.num_nodes, dtype=np.int64)
    for _ in range(max_iterations):
        if frontier.size == 0:
            break
        tracer.counter("frontier.size", nodes=frontier.size)
        frontier_hist.observe(frontier.size, algorithm="connected_components")
        with tracer.span(
            "cc.iteration", "algorithm", frontier_nodes=int(frontier.size)
        ):
            nf_dev = ctx.array("cc.nf", frontier)

            # ---- expansion preparation (GPU) ------------------------------------
            indexes_values = graph.offsets[frontier]
            count_values = graph.out_degrees[frontier]
            indexes_dev = ctx.array("cc.indexes", indexes_values)
            count_dev = ctx.array("cc.count", count_values)
            label_dev = ctx.array("cc.labels", labels[frontier])
            dev.kernel(
                "cc.expand.prepare", PhaseKind.PROCESSING, threads=frontier.size,
                cost=KERNEL_COSTS["expand.prepare"], scan=frontier.size,
                loads=(
                    nf_dev.span(),
                    dev.offsets.addresses(frontier),
                    dev.offsets.addresses(frontier + 1),
                    dev.node_data.addresses(frontier),
                ),
                stores=(indexes_dev.span(), count_dev.span(), label_dev.span()),
            )

            gather_indices, run_start = expansion_run(indexes_values, count_values)
            ef_values = graph.edges[gather_indices]
            candidate_labels = np.repeat(labels[frontier], count_values)

            # ---- expansion gather ------------------------------------------------
            if mode is SystemMode.GPU:
                ef_dev = ctx.array("cc.ef", ef_values)
                lf_dev = ctx.array("cc.lf", candidate_labels)
                dev.kernel(
                    "cc.expand.gather", PhaseKind.COMPACTION, threads=ef_values.size,
                    cost=KERNEL_COSTS["expand.gather"], scan=frontier.size,
                    loads=(
                        indexes_dev.span(), count_dev.span(),
                        expansion_addresses(dev.edges, gather_indices, run_start),
                    ),
                    stores=(ef_dev.span(), lf_dev.span()),
                )
            else:
                ef_dev = dev.scu(scu.access_expansion_compaction(
                    dev.edges, indexes_dev, count_dev, out="cc.ef"
                ))
                lf_dev = dev.scu(
                    scu.replication_compaction(label_dev, count_dev, out="cc.lf")
                )
                if mode is SystemMode.SCU_ENHANCED:
                    # Unique-best-cost filtering with labels as the cost: for
                    # every destination keep only the lowest candidate label
                    # seen (hash-lossy, exactly as in SSSP).
                    mask_dev = dev.scu(
                        scu.filter_best_cost_pass(ef_dev, lf_dev, out="cc.filter")
                    )
                    ef_dev = dev.scu(scu.data_compaction(ef_dev, mask_dev, out="cc.ef.f"))
                    lf_dev = dev.scu(scu.data_compaction(lf_dev, mask_dev, out="cc.lf.f"))
                    keep_mask = np.asarray(mask_dev.values, dtype=bool)
                    ef_values = ef_values[keep_mask]
                    candidate_labels = candidate_labels[keep_mask]

            # ---- contraction: keep improving labels (GPU) -------------------------
            improving = candidate_labels < labels[ef_values]
            dev.kernel(
                "cc.contract.process", PhaseKind.PROCESSING, threads=ef_values.size,
                cost=KERNEL_COSTS["contract.process"],
                loads=(ef_dev.span(), lf_dev.span(), dev.node_data.addresses(ef_values)),
                atomics=(dev.node_data.addresses(ef_values[improving]),),
                stores=(ctx.bitmask("cc.mask", improving).span(),),
            )

            candidates = np.unique(ef_values[improving])
            before = labels[candidates].copy()
            if improving.any():
                np.minimum.at(labels, ef_values[improving], candidate_labels[improving])
            # Only nodes whose label actually dropped re-enter the frontier.
            updated = candidates[labels[candidates] < before]

            # ---- contraction: compact the next frontier ---------------------------
            next_mask = np.isin(ef_values, updated) & improving
            next_mask_dev = ctx.bitmask("cc.nextmask", next_mask)
            if mode is SystemMode.GPU:
                dev.kernel(
                    "cc.contract.compact", PhaseKind.COMPACTION, threads=ef_values.size,
                    cost=KERNEL_COSTS["contract.compact"], scan=ef_values.size,
                    loads=(ef_dev.span(), next_mask_dev.span()),
                    stores=(ctx.array("cc.nf.next", updated).span(),),
                )
            else:
                dev.scu(scu.data_compaction(ef_dev, next_mask_dev, out="cc.nf.next"))
            frontier = updated
    else:
        raise SimulationError("CC failed to converge within the iteration budget")

    return labels.copy(), finalize_report(dev.report, system)
