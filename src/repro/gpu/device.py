"""The GPU device model: executes :class:`KernelSpec` cost descriptions.

``GpuDevice.run`` is the single entry point the algorithms use for GPU
work: it prices every access stream (:meth:`GpuDevice.price`: coalesce
warp-by-warp, then push the transactions through the shared memory
hierarchy), applies the timing and energy models, and returns a
:class:`~repro.phases.PhaseReport`.

Pricing a stream depends on the stream and the device alone, so an
algorithm that issues the same stream in every iteration prices it once
and hands the :class:`~repro.gpu.kernel.StreamCost` to each launch;
``run`` folds a cost exactly like a stream it prices itself, counter and
histogram updates included, and the in-place pricing stays the spec.

A stream's price is a fixed cost per call plus its elements: walks are
priced in closed form, short gathers with plain Python ints
(:data:`~repro.mem.coalescer.SMALL_STREAM`), and every value pricing
builds is a named tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import SimulationError
from ..mem.address_space import AddressRange
from ..mem.coalescer import coalesce_warp
from ..mem.hierarchy import MemoryHierarchy, MemoryStats
from ..obs import NULL_OBS, Observability
from ..phases import Engine, PhaseReport
from .config import GpuConfig
from .energy import kernel_dynamic_energy_j
from .kernel import AccessStream, KernelSpec, StreamCost
from .timing import kernel_timing

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..backends.iru import IrregularAccessReorderUnit


@dataclass
class GpuDevice:
    """One GPU system (config + memory hierarchy).

    ``memory_scale`` divides the modeled L2 capacity at construction
    time (see :data:`~repro.core.api.PAPER_SCALE`), so the hierarchy is
    never resized after it exists — every component observes one
    consistent capacity for the device's whole lifetime.
    """

    config: GpuConfig
    obs: Observability = NULL_OBS
    memory_scale: float = 1.0
    #: optional IRU hook on the coalescer's input (see repro.backends.iru);
    #: None for every backend except ``iru``.
    reorderer: "IrregularAccessReorderUnit | None" = None
    hierarchy: MemoryHierarchy = field(init=False)

    def __post_init__(self) -> None:
        l2_bytes = self.config.l2_bytes
        if self.memory_scale != 1.0:
            l2_bytes = int(self.config.l2_bytes / self.memory_scale)
        self.hierarchy = MemoryHierarchy(
            l2_capacity_bytes=l2_bytes, dram=self.config.dram,
            obs=self.obs,
        )

    def attach_obs(self, obs: Observability) -> None:
        """Point this device (and its memory hierarchy) at an observer."""
        self.obs = obs
        self.hierarchy.attach_obs(obs)

    def attach_reorderer(self, unit: "IrregularAccessReorderUnit") -> None:
        """Install an IRU on the coalescer input path (backend hook)."""
        self.reorderer = unit

    def price(self, stream: AccessStream) -> StreamCost:
        """Coalesce one access stream and price it through the hierarchy.

        An installed IRU reorders the stream first unless it bypasses it:
        regular (already-ordered) streams, which every range is, and
        atomics.  Nothing is recorded here: the cost keeps the counter
        and histogram updates pricing makes, and :meth:`run` records
        them where the stream is issued.  An unobserved device keeps
        none, so price a stream under the observer that runs it.
        """
        addresses = stream.addresses
        active_mask = stream.active_mask
        iru_elements = 0
        if (
            self.reorderer is not None
            and not stream.is_atomic
            and not isinstance(addresses, AddressRange)
        ):
            intercepted = self.reorderer.intercept(addresses, active_mask=active_mask)
            if intercepted is not None:
                addresses, iru_elements = intercepted
                active_mask = None  # mask pre-applied by the unit
        observations = [] if self.obs.metrics.enabled else None
        result = coalesce_warp(addresses, active_mask=active_mask)
        memory = self.hierarchy.process(
            result, l2_bypass=stream.l2_bypass, observations=observations
        )
        dram_s = self.hierarchy.dram_time_s(memory, observations=observations)
        return StreamCost(
            stream,
            memory,
            dram_s,
            iru_elements,
            tuple(observations) if observations else (),
            self,
        )

    def run(self, spec: KernelSpec) -> PhaseReport:
        """Execute (cost-model) one kernel launch.

        DRAM time is summed per access stream rather than computed on
        the merged aggregate: interleaving a random gather with a
        sequential stream destroys the latter's row locality, so the
        streams effectively serialize at the DRAM — a divergent gather
        cannot hide under a streaming store's bandwidth.
        """
        tracer = self.obs.tracer
        with tracer.span(
            spec.name, "gpu-kernel", **(spec.trace_args() if tracer.enabled else {})
        ) as span:
            parts = []
            dram_s = 0.0
            iru_elements = 0
            for access in spec.accesses:
                if not isinstance(access, StreamCost):
                    cost = self.price(access)
                elif access.device is self:
                    cost = access
                else:
                    raise SimulationError(
                        f"kernel {spec.name}: a stream cost priced on another "
                        f"device cannot be folded here"
                    )
                if cost.observations:
                    self.obs.metrics.record(cost.observations)
                parts.append(cost.memory)
                dram_s += cost.dram_s
                iru_elements += cost.iru_elements
            memory = MemoryStats.fold(parts)
            iru_overhead_s = 0.0
            iru_energy_j = 0.0
            if iru_elements:
                iru_overhead_s = self.reorderer.exposed_time_s(iru_elements)
                iru_energy_j = self.reorderer.dynamic_energy_j(iru_elements)
            atomics = spec.atomic_count
            timing = kernel_timing(
                self.config,
                self.hierarchy,
                instructions=spec.total_instructions,
                memory=memory,
                atomics=atomics,
                memory_efficiency=spec.memory_efficiency,
                dram_s_override=dram_s,
                obs=self.obs,
            )
            energy = kernel_dynamic_energy_j(
                self.config,
                self.hierarchy,
                instructions=spec.total_instructions,
                memory=memory,
                atomics=atomics,
                busy_time_s=timing.total_s + spec.extra_overhead_s,
            )
            time_s = timing.total_s + spec.extra_overhead_s + iru_overhead_s
            energy += iru_energy_j
            if self.obs.metrics.enabled:
                metrics = self.obs.metrics
                metrics.counter("gpu.kernel.launches").inc(kernel=spec.name)
                metrics.counter("gpu.kernel.transactions").inc(memory.transactions)
                if memory.transactions:
                    metrics.histogram("gpu.warp.coalesce_factor").observe(
                        memory.coalescing_factor, kernel=spec.name
                    )
                if iru_elements:
                    metrics.counter("iru.kernel.elements").inc(
                        iru_elements, kernel=spec.name
                    )
                    metrics.counter("iru.kernel.exposed_s").inc(iru_overhead_s)
            if tracer.enabled:
                span.annotate(
                    sim_time_s=time_s,
                    sim_energy_j=energy,
                    bottleneck=timing.bottleneck,
                    transactions=memory.transactions,
                    dram_bytes=memory.dram_bytes,
                )
            return PhaseReport(
                name=spec.name,
                engine=Engine.GPU,
                kind=spec.kind,
                elements=spec.threads,
                instructions=spec.total_instructions,
                time_s=time_s,
                dynamic_energy_j=energy,
                memory=memory,
            )
