"""Shared machinery for the three graph primitives.

Holds the system-variant enum, the per-kernel instruction-cost constants
(modeling the CUDA implementations the paper builds on), the GPU-side
duplicate-culling models (:func:`warp_cull`, :func:`best_effort_cull`,
each pinned to a plain-loop ``*_reference``; both sort with
:func:`~repro.core.ops.stable_order`), and :class:`GraphOnDevice`, the
run object every driver launches its phases through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# SystemMode now lives with the backend registry; re-exported here for
# compatibility — every historical ``from repro.algorithms.common import
# SystemMode`` keeps working.
from ..backends.modes import SystemMode
from ..core.api import ScuSystem
from ..core.energy import scu_static_power_w
from ..core.ops import stable_order
from ..errors import SimulationError
from ..gpu.energy import system_static_power_w
from ..gpu.kernel import KernelSpec
from ..graph.csr import CsrGraph
from ..mem.address_space import DeviceArray
from ..phases import PhaseKind, PhaseReport, RunReport


#: Instruction-per-thread costs of the modeled CUDA kernels.  Derived
#: from the structure of the Merrill BFS / Davidson SSSP / Geil PR
#: kernels (loads, stores, index arithmetic, culling heuristics, scan
#: steps); they matter only when a kernel is compute-bound, which graph
#: kernels rarely are.
KERNEL_COSTS = {
    "expand.prepare": 12.0,  # degree fetch + scan participation
    "expand.gather": 8.0,  # ragged gather with CTA/warp balancing
    "contract.process": 22.0,  # label test + warp/history culling
    "contract.compact": 10.0,  # scan + scatter of surviving nodes
    "sssp.contract.process": 26.0,  # + near/far split and atomicMin
    "pr.rank_update": 11.0,  # atomic accumulation per edge
    "pr.dampen": 7.0,
    "pr.convergence": 9.0,  # block reduction participation
    "bitmask.build": 6.0,
}

#: Extra instructions charged per element for scan-based allocation
#: (prefix sums are log-depth but touch every element a few times).
SCAN_OVERHEAD_PER_ELEMENT = 4.0

#: Sustained fraction of peak memory throughput GPU stream-compaction
#: kernels reach.  Scan-based compaction pays multi-phase passes with
#: grid synchronization (Billeter et al. HPG'09 report ~half of copy
#: bandwidth for the scan alone), ragged fine-grained gathers, and
#: per-iteration launch/configuration stalls; measured GPU graph
#: traversals sustain well under a third of peak DRAM bandwidth during
#: their compaction steps — which is why Figure 1 of the paper shows
#: compaction costing 25-55 % of real execution time.  The SCU's whole
#: premise is that a dedicated sequential unit does not pay this.
COMPACTION_MEMORY_EFFICIENCY = 0.30

#: Reach of the per-CTA shared-memory history hash (Merrill): a
#: duplicate whose previous copy sits within this many stream positions
#: is caught cheaply.  Clustered duplicates (mesh neighbourhoods) fall
#: here.
HISTORY_CULL_WINDOW = 1024

#: Stream positions after which the non-atomic visited bit is visible
#: to later threads: the store propagates through the L2 in a couple of
#: microseconds, during which the grid retires a few thousand elements.
#: A time-based constant, so it is shared by both GPU systems.
VISIBILITY_WINDOW = 4096

#: Host-side cost charged once per GPU compaction phase: the scan runs
#: as separate upsweep/downsweep launches and the new frontier size is
#: copied back for the next launch configuration (cudaMemcpy + sync).
COMPACTION_SYNC_OVERHEAD_S = 4e-6


def compaction_sync_overhead_s(config) -> float:
    """Extra per-phase overhead of GPU scan-based compaction."""
    return config.kernel_launch_overhead_s + COMPACTION_SYNC_OVERHEAD_S


def best_effort_cull(
    ids: np.ndarray, *, history: int = HISTORY_CULL_WINDOW, visibility: int = VISIBILITY_WINDOW
) -> np.ndarray:
    """Keep-mask of Merrill's full best-effort duplicate pipeline (2.1.2).

    Three mechanisms, composed deterministically:

    * **warp/history culling** — per-CTA shared-memory hashes of
      recently enqueued nodes catch a duplicate whose *previous* copy
      lies within ``history`` stream positions (clustered duplicates,
      e.g. mesh neighbourhoods, rarely survive);
    * **visited bitmask** — the non-atomic global status bit becomes
      visible once the first copy retired more than ``visibility``
      positions earlier (roughly the resident-thread count), dropping
      far-apart duplicates;
    * duplicates in the band between race and survive — the false
      negatives the SCU's hash filtering later removes.

    :func:`best_effort_cull_reference` is the written spec.  Sorted
    stably by id, each id's copies form one run in stream order: a
    copy's previous copy sits just before it, its first copy at the
    run's start.
    """
    ids = np.asarray(ids, dtype=np.int64)
    n = ids.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    order, sorted_ids = stable_order(ids)
    run_start = np.ones(n, dtype=bool)
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=run_start[1:])
    previous = np.empty(n, dtype=np.int64)
    previous[0] = 0  # position 0 starts a run: kept whatever it reads
    previous[1:] = order[:-1]
    starts = np.flatnonzero(run_start)
    first = np.repeat(order[starts], np.diff(np.append(starts, n)))
    keep_sorted = run_start | (
        (order - previous >= history) & (order - first < visibility)
    )
    keep = np.empty(n, dtype=bool)
    keep[order] = keep_sorted
    return keep


def best_effort_cull_reference(
    ids: np.ndarray, *, history: int = HISTORY_CULL_WINDOW, visibility: int = VISIBILITY_WINDOW
) -> np.ndarray:
    """Plain-loop spec of :func:`best_effort_cull`.

    A first copy is kept.  A later copy is kept only when the history
    hash has lost its previous copy (``history`` or more positions back)
    and the visited bit of its first copy is not yet visible (fewer than
    ``visibility`` positions back).
    """
    first: dict[int, int] = {}
    latest: dict[int, int] = {}
    keep = np.zeros(len(ids), dtype=bool)
    for i, node in enumerate(np.asarray(ids, dtype=np.int64).tolist()):
        if node not in first:
            first[node] = i
            keep[i] = True
        else:
            keep[i] = i - latest[node] >= history and i - first[node] < visibility
        latest[node] = i
    return keep


def warp_cull(ids: np.ndarray, *, window: int = 32) -> np.ndarray:
    """Keep-mask modeling intra-warp duplicate culling (Merrill Section 4).

    GPU implementations cheaply drop duplicates that threads of the same
    warp hold (voting/shuffle based), but duplicates further apart in
    the frontier survive — the "best-effort" filtering whose leftovers
    the SCU's hash filtering removes.  Deterministic model: within every
    consecutive ``window`` elements, only the first copy of a value is
    kept (:func:`warp_cull_reference` is the written spec).

    Each window is one row of keys ``id + 1``, sorted stably along the
    row, so a value's first copy starts its run.  The last row is padded
    with key 0 after its real lanes; the padding's marks are dropped.
    """
    ids = np.asarray(ids, dtype=np.int64)
    n = ids.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    keys = np.zeros(n + (-n) % window, dtype=np.int64)
    np.add(ids, 1, out=keys[:n])
    order, sorted_keys = stable_order(keys.reshape(-1, window))
    first = np.ones(order.shape, dtype=bool)
    np.not_equal(sorted_keys[:, 1:], sorted_keys[:, :-1], out=first[:, 1:])
    order += np.arange(0, keys.size, window, dtype=np.int64)[:, None]
    keep = np.empty(keys.size, dtype=bool)
    keep[order.ravel()] = first.ravel()
    return keep[:n]


def warp_cull_reference(ids: np.ndarray, *, window: int = 32) -> np.ndarray:
    """Plain-loop spec of :func:`warp_cull`: per consecutive ``window``
    elements, the first copy of each value is kept."""
    values = np.asarray(ids, dtype=np.int64).tolist()
    keep = np.zeros(len(values), dtype=bool)
    for start in range(0, len(values), window):
        seen: set[int] = set()
        for i in range(start, min(start + window, len(values))):
            if values[i] not in seen:
                seen.add(values[i])
                keep[i] = True
    return keep


@dataclass
class GraphOnDevice:
    """One run of a graph primitive: its CSR graph placed in device
    memory, the system and mode it runs on, and the report its phases
    fill.  Drivers launch every GPU kernel through :meth:`kernel`, the
    one place that prices a GPU compaction, and record every SCU
    operation through :meth:`scu`."""

    graph: CsrGraph
    system: ScuSystem
    mode: SystemMode
    report: RunReport
    offsets: DeviceArray
    edges: DeviceArray
    weights: DeviceArray
    node_data: DeviceArray  # per-node state (labels / distances / ranks)
    scan_scratch: DeviceArray  # prefix-sum intermediate storage

    @classmethod
    def place(
        cls, algorithm: str, graph: CsrGraph, system: ScuSystem, mode: SystemMode,
        node_fill,
    ) -> "GraphOnDevice":
        if mode is not SystemMode.GPU and not system.has_scu:
            raise SimulationError(f"mode {mode.value} requires a system with an SCU")
        ctx = system.ctx
        scratch = np.zeros(max(graph.num_edges, graph.num_nodes, 1), dtype=np.int64)
        return cls(
            graph=graph,
            system=system,
            mode=mode,
            report=RunReport(algorithm=algorithm, system=mode.value, dataset=graph.name),
            offsets=ctx.array("csr.offsets", graph.offsets),
            edges=ctx.array("csr.edges", graph.edges),
            weights=ctx.array("csr.weights", graph.weights),
            node_data=ctx.array("node.state", np.full(graph.num_nodes, node_fill)),
            scan_scratch=ctx.array("scan.scratch", scratch),
        )

    def kernel(
        self, name: str, kind: PhaseKind, *, threads: int, cost: float,
        scan: int = 0, passes: int = 1, loads=(), atomics=(), stores=(),
    ) -> None:
        """Launch one GPU kernel and record its phase.

        It issues ``loads``, then ``atomics``, then ``stores``, and pays
        ``passes`` prefix sums over ``scan`` elements in instructions.  A
        compaction kernel also runs at :data:`COMPACTION_MEMORY_EFFICIENCY`,
        pays the host-side scan synchronisation and, after its own
        streams, each pass's traffic: scan-based allocation
        (Merrill/Billeter) reads its inputs in an upsweep and writes
        them in a downsweep, which GPU stream compaction pays and the
        SCU does not.
        """
        gpu = self.system.gpu
        compaction = kind is PhaseKind.COMPACTION
        spec = KernelSpec(
            name, kind, threads=threads, instructions_per_thread=cost,
            extra_instructions=int(passes * SCAN_OVERHEAD_PER_ELEMENT * scan),
            memory_efficiency=COMPACTION_MEMORY_EFFICIENCY if compaction else 1.0,
            extra_overhead_s=(
                compaction_sync_overhead_s(gpu.config) if compaction else 0.0
            ),
        )
        for addresses in loads:
            spec.load(addresses)
        for addresses in atomics:
            spec.atomic(addresses)
        for addresses in stores:
            spec.store(addresses)
        if compaction and scan > 0:
            scratch = self.scan_scratch
            if scan <= scratch.size:
                walk = scratch.span(0, scan)
            else:
                walk = scratch.addresses(np.arange(scan, dtype=np.int64) % scratch.size)
            for _ in range(passes):
                spec.load(walk)
                spec.store(walk)
        self.report.add(gpu.run(spec))

    def scu(self, operation: tuple[DeviceArray, PhaseReport]) -> DeviceArray:
        """Record an SCU operation's phase; returns its result array."""
        array, phase = operation
        self.report.add(phase)
        return array


def finalize_report(report: RunReport, system: ScuSystem) -> RunReport:
    """Charge static energy over the makespan (GPU + DRAM + accelerator)."""
    power = system_static_power_w(system.gpu.config)
    if system.has_scu:
        power += scu_static_power_w(system.scu.config)
    if system.has_iru:
        power += system.iru.static_power_w
    report.static_energy_j = power * report.time_s()
    return report


def pick_source(graph: CsrGraph) -> int:
    """Deterministic high-degree source so traversals reach most nodes."""
    return int(np.argmax(graph.out_degrees))
