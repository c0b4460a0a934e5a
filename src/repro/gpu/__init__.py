"""GPU model: configurations, kernel accounting, timing, energy, device."""

from .config import GPU_SYSTEMS, GTX980, TX1, GpuConfig
from .device import GpuDevice
from .energy import kernel_dynamic_energy_j, system_static_power_w
from .kernel import AccessStream, KernelSpec, StreamCost, atomic_stream
from .timing import ATOMICS_PER_CLOCK, MSHRS_PER_SM, KernelTiming, kernel_timing

__all__ = [
    "GpuConfig",
    "GTX980",
    "TX1",
    "GPU_SYSTEMS",
    "GpuDevice",
    "KernelSpec",
    "AccessStream",
    "StreamCost",
    "atomic_stream",
    "KernelTiming",
    "kernel_timing",
    "kernel_dynamic_energy_j",
    "system_static_power_w",
    "MSHRS_PER_SM",
    "ATOMICS_PER_CLOCK",
]
