"""GPU kernel latency model.

A kernel's duration is the maximum of four bottleneck terms plus the
launch overhead — the classic bottleneck (roofline-style) abstraction of
a throughput processor:

* **compute**: thread-instructions over sustained issue throughput;
* **L2**: transaction bytes over L2 bandwidth;
* **DRAM**: miss bytes over effective DRAM bandwidth (row-locality
  derated, from the DRAM model);
* **latency**: transactions over the maximum the SMs can keep in flight
  (MSHRs), times the device access latency — this is what makes small,
  divergent frontiers slow even though bandwidth is idle, and it is why
  road networks behave so differently from Kronecker graphs;
* **atomics**: serialized atomic throughput at the L2.

Memory divergence enters through the transaction count itself: the same
1024 loads cost 32 transactions when coalesced and 1024 when divergent.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mem.coalescer import SECTOR_BYTES
from ..mem.hierarchy import MemoryHierarchy, MemoryStats
from ..obs import NULL_OBS, Observability
from .config import GpuConfig

#: Fallback effective-MLP figure for configs predating the per-GPU
#: field (see GpuConfig.effective_mshrs_per_sm); kept for the tests'
#: sensitivity sweeps.
MSHRS_PER_SM = 8
#: Atomic operations retired per clock across the L2 (Maxwell-era figure).
ATOMICS_PER_CLOCK = 4.0


@dataclass(frozen=True)
class KernelTiming:
    """Breakdown of one kernel's modeled duration."""

    compute_s: float
    l2_s: float
    dram_s: float
    latency_s: float
    atomic_s: float
    overhead_s: float

    @property
    def total_s(self) -> float:
        bottleneck = max(
            self.compute_s, self.l2_s, self.dram_s, self.latency_s, self.atomic_s
        )
        return bottleneck + self.overhead_s

    @property
    def bottleneck(self) -> str:
        terms = {
            "compute": self.compute_s,
            "l2": self.l2_s,
            "dram": self.dram_s,
            "latency": self.latency_s,
            "atomic": self.atomic_s,
        }
        return max(terms, key=terms.get)


def kernel_timing(
    config: GpuConfig,
    hierarchy: MemoryHierarchy,
    *,
    instructions: int,
    memory: MemoryStats,
    atomics: int = 0,
    memory_efficiency: float = 1.0,
    dram_s_override: float | None = None,
    obs: Observability = NULL_OBS,
) -> KernelTiming:
    """Model the duration of one kernel launch.

    ``memory_efficiency`` derates the memory-side terms for kernels that
    cannot keep the memory system busy (scan-based compaction's
    synchronization and multi-phase structure).  ``dram_s_override``
    lets the device pass a per-stream (serialized-drain) DRAM time
    instead of the merged-aggregate estimate.  ``obs`` records which
    bottleneck term won and by how much.
    """
    compute_s = instructions / (config.peak_ops_per_s * config.issue_efficiency)
    l2_s = (
        memory.transactions * SECTOR_BYTES / config.l2_bandwidth_bps
    ) / memory_efficiency
    base_dram_s = (
        dram_s_override if dram_s_override is not None else hierarchy.dram_time_s(memory)
    )
    dram_s = base_dram_s / memory_efficiency

    inflight = config.num_sms * getattr(
        config, "effective_mshrs_per_sm", MSHRS_PER_SM
    )
    if memory.transactions:
        waves = memory.transactions / inflight
        latency_s = waves * config.dram.access_latency_ns * 1e-9
    else:
        latency_s = 0.0

    atomic_s = atomics / (ATOMICS_PER_CLOCK * config.clock_hz) if atomics else 0.0

    timing = KernelTiming(
        compute_s=compute_s,
        l2_s=l2_s,
        dram_s=dram_s,
        latency_s=latency_s,
        atomic_s=atomic_s,
        overhead_s=config.kernel_launch_overhead_s,
    )
    if obs.metrics.enabled:
        metrics = obs.metrics
        metrics.counter("gpu.kernel.bottleneck").inc(term=timing.bottleneck)
        metrics.counter("gpu.kernel.sim_time_s").inc(timing.total_s, gpu=config.name)
    return timing
