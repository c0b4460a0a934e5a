"""Memory-system substrate: coalescing, caches, DRAM, hierarchy."""

from .address_space import (
    AddressRange,
    AddressSpace,
    Allocation,
    DeviceArray,
    DeviceContext,
)
from .cache import CacheStats, SetAssociativeCache
from .coalescer import (
    LINE_BYTES,
    SECTOR_BYTES,
    WARP_SIZE,
    CoalesceResult,
    SectorWalk,
    coalesce_stream,
    coalesce_warp,
    gather_addresses,
    sequential_addresses,
)
from .dram import GDDR5, LPDDR4, DramConfig, DramModel, DramTraffic
from .dram_sim import BankedDramSim, DramSimResult, DramTimingParams
from .hierarchy import MemoryHierarchy, MemoryStats, row_hit_fraction
from .locality import LocalityProfile, estimate_hit_rate, estimate_hits, profile_lines

__all__ = [
    "AddressRange",
    "AddressSpace",
    "Allocation",
    "DeviceArray",
    "DeviceContext",
    "CacheStats",
    "SetAssociativeCache",
    "CoalesceResult",
    "SectorWalk",
    "coalesce_warp",
    "coalesce_stream",
    "sequential_addresses",
    "gather_addresses",
    "SECTOR_BYTES",
    "LINE_BYTES",
    "WARP_SIZE",
    "DramConfig",
    "DramModel",
    "DramTraffic",
    "GDDR5",
    "LPDDR4",
    "BankedDramSim",
    "DramSimResult",
    "DramTimingParams",
    "MemoryHierarchy",
    "MemoryStats",
    "row_hit_fraction",
    "LocalityProfile",
    "profile_lines",
    "estimate_hit_rate",
    "estimate_hits",
]
