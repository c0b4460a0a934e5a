"""Structural model of the SCU hardware pipeline (Figure 7).

The pipeline's five functional units are:

* **Address Generator** — configured per operation; walks the input
  vectors (data / bitmask / indexes / count) in order;
* **Data Fetch** — issues the read requests the Address Generator
  produced, in FIFO order;
* **Coalescing Unit** — merges reads to the same sector within a small
  window (Table 1: 32 in-flight, 4-merge);
* **Bitmask Constructor** — the comparator datapath;
* **Data Store** — writes results to consecutive addresses, with its own
  trivial write coalescing.

For the cost model the pipeline is a throughput machine: it moves
``pipeline_width`` elements per cycle when memory keeps up.  What this
module contributes is the *memory traffic shape* of each operation —
which vectors are walked sequentially, which are gathered sparsely —
expressed as address streams the shared memory hierarchy then prices.
The Address Generator's sequential walks (``sequential_read``,
``bitmask_read``, ``sequential_write``) are
:class:`~repro.mem.address_space.AddressRange` streams, priced in
closed form, and so is an Access Expansion whose ranges are back to
back (:func:`expansion_addresses`, shared with the GPU drivers); gathers
and hash probes are explicit address arrays, the short ones priced with
plain Python ints (:data:`~repro.mem.coalescer.SMALL_STREAM`).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..mem.address_space import AddressRange, DeviceArray
from ..mem.coalescer import CoalesceResult, coalesce_stream
from ..mem.hierarchy import MemoryHierarchy, MemoryStats
from ..obs import NULL_OBS, Observability
from .config import ScuConfig


class ScuStream(NamedTuple):
    """One address stream an SCU operation issues (immutable; a named
    tuple because every operation builds several)."""

    role: str  # "data", "bitmask", "indexes", "count", "hash", "output"
    addresses: "np.ndarray | AddressRange"
    is_write: bool = False
    #: hash-table traffic is random by construction; everything else the
    #: SCU touches is either sequential or a gather the coalescer sees.
    random_access: bool = False


def coalesce_scu_stream(stream: ScuStream, config: ScuConfig) -> CoalesceResult:
    """Run one stream through the SCU coalescing unit.

    The merge window of Table 1 counts pending *requests*; the Data
    Fetch unit issues 8-byte beats, so with 4-byte stream elements one
    window position covers two elements — an effective window of
    ``2 x merge_window`` elements.  A sequential walk therefore merges
    into exactly one transaction per 32-byte sector, which is what the
    Address Generator's stride knowledge achieves in the hardware.
    Hash-table probes are scattered and almost never merge; they go
    through the same window and pay full price.
    """
    window = 1 if stream.random_access else 2 * config.coalescer_merge_window
    return coalesce_stream(stream.addresses, merge_window=window)


def streams_memory_stats(
    streams: list[ScuStream],
    config: ScuConfig,
    hierarchy: MemoryHierarchy,
    *,
    obs: Observability = NULL_OBS,
) -> tuple[MemoryStats, float]:
    """Coalesce and price every stream of one operation.

    Returns the streams' statistics, folded in stream order
    (:meth:`~repro.mem.hierarchy.MemoryStats.fold`), plus the
    serialized-drain DRAM time (per-stream sum — the same interleaving
    argument as the GPU device: random hash probes break the sequential
    walks' row locality).
    ``obs`` records each stream's coalescing behaviour by role, which is
    how hash-probe scatter shows up next to sequential walks.
    """
    parts = []
    dram_s = 0.0
    for stream in streams:
        result = coalesce_scu_stream(stream, config)
        stats = hierarchy.process(result)
        dram_s += hierarchy.dram_time_s(stats)
        parts.append(stats)
        if obs.metrics.enabled and stats.transactions:
            metrics = obs.metrics
            metrics.counter("scu.stream.transactions").inc(
                stats.transactions, role=stream.role
            )
            metrics.histogram("scu.stream.coalesce_factor").observe(
                stats.coalescing_factor, role=stream.role
            )
    return MemoryStats.fold(parts), dram_s


# -- stream builders, one vocabulary shared by all operations ---------------


def sequential_read(
    array: DeviceArray, role: str = "data", *, start: int = 0, count: int | None = None
) -> ScuStream:
    """The in-order walk over ``count`` elements from ``start`` (default:
    the whole array)."""
    return ScuStream(role=role, addresses=array.span(start, count))


def bitmask_read(mask_array: DeviceArray) -> ScuStream:
    """The packed bitmask walk: one 4-byte word per 32 elements."""
    return ScuStream(role="bitmask", addresses=mask_array.span())


def gather_read(array: DeviceArray, indices: np.ndarray, role: str = "data") -> ScuStream:
    return ScuStream(role=role, addresses=array.addresses(indices))


def expansion_addresses(
    array: DeviceArray, indices: np.ndarray, run_start: int | None
) -> "np.ndarray | AddressRange":
    """The addresses an Access Expansion gathers from ``array``, on the
    SCU or the GPU: with ``indices, run_start`` from
    :func:`~repro.core.ops.expansion_run`, the in-order walk of that one
    run (back-to-back ranges, a whole CSR adjacency), which the
    hierarchy prices in closed form and an IRU bypasses; otherwise the
    explicit gather of ``indices``."""
    if run_start is None:
        return array.addresses(indices)
    return array.span(run_start, indices.size)


def sequential_write(array: DeviceArray) -> ScuStream:
    return ScuStream(role="output", addresses=array.span(), is_write=True)


def hash_probe(addresses: np.ndarray) -> ScuStream:
    return ScuStream(role="hash", addresses=addresses, random_access=True)
