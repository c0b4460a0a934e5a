"""The paper's contribution: the Stream Compaction Unit."""

from .api import PAPER_SCALE, ScuSystem, build_system
from .area import (
    area_breakdown,
    power_breakdown_w,
    render_synthesis_report,
    total_area_mm2,
)
from .cyclesim import CycleSimResult, ScuPipelineSim
from .config import (
    SCU_CONFIGS,
    SCU_GTX980,
    SCU_TX1,
    HashTableConfig,
    ScuConfig,
)
from .energy import scu_op_dynamic_energy_j, scu_static_power_w
from .filtering import (
    duplicates_removed_fraction,
    filter_best_cost,
    filter_best_cost_reference,
    filter_unique,
    filter_unique_reference,
)
from .grouping import group_order, group_order_reference, grouping_quality
from .hashtable import hash_slots, table_addresses
from .ops import (
    COMPARISONS,
    access_compaction,
    access_expansion_compaction,
    bitmask_constructor,
    compaction_addresses,
    data_compaction,
    exclusive_scan,
    expanded_indices,
    replication_compaction,
)
from .timing import ScuTiming, scu_op_timing
from .unit import StreamCompactionUnit

__all__ = [
    "ScuSystem",
    "build_system",
    "PAPER_SCALE",
    "area_breakdown",
    "total_area_mm2",
    "power_breakdown_w",
    "render_synthesis_report",
    "ScuPipelineSim",
    "CycleSimResult",
    "ScuConfig",
    "HashTableConfig",
    "SCU_GTX980",
    "SCU_TX1",
    "SCU_CONFIGS",
    "StreamCompactionUnit",
    "ScuTiming",
    "scu_op_timing",
    "scu_op_dynamic_energy_j",
    "scu_static_power_w",
    "hash_slots",
    "table_addresses",
    "filter_unique",
    "filter_unique_reference",
    "filter_best_cost",
    "filter_best_cost_reference",
    "duplicates_removed_fraction",
    "group_order",
    "group_order_reference",
    "grouping_quality",
    "COMPARISONS",
    "bitmask_constructor",
    "exclusive_scan",
    "compaction_addresses",
    "data_compaction",
    "access_compaction",
    "replication_compaction",
    "access_expansion_compaction",
    "expanded_indices",
]
