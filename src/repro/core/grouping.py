"""Cache-line grouping with the in-memory hash table (Section 4.3).

Grouping reorders the compacted stream so that edges whose *destination
nodes* live in the same cache line end up adjacent in the output array;
the GPU threads that later process consecutive elements then coalesce
their accesses.  The hardware:

* hashes each element's destination memory block to a table entry;
* appends the element when the entry already collects that block;
* on a block conflict, *evicts* the old group — its elements are written
  out together at that point — and starts collecting the new block;
* bounds groups to ``group_size`` (8) elements: a full group is flushed
  and a fresh one started;
* on stream end, flushes surviving groups in table order.

The result is not a full sort (the paper is explicit about this): it is
a best-effort clustering whose quality degrades gracefully with table
pressure.  As with filtering, a sequential dict-based reference and a
vectorized implementation are provided and property-tested against each
other; both produce the *exact* output order of the hardware algorithm.
"""

from __future__ import annotations

import numpy as np

from ..errors import OperationError
from ..obs import NULL_OBS, Observability
from .config import HashTableConfig
from .hashtable import hash_slots
from .ops import stable_order


def group_order(
    blocks: np.ndarray,
    table: HashTableConfig,
    *,
    group_size: int = 8,
    obs: Observability = NULL_OBS,
) -> np.ndarray:
    """Compute the grouped output order (vectorized).

    Args:
        blocks: destination memory-block id of each stream element.
        table: grouping hash-table geometry.
        group_size: maximum elements per group (Section 4.3 uses 8).

    Returns:
        Permutation ``perm`` such that ``output[k] = input[perm[k]]``.
    """
    blocks = np.asarray(blocks, dtype=np.int64)
    if blocks.ndim != 1:
        raise OperationError("blocks must be one-dimensional")
    if group_size <= 0:
        raise OperationError(f"group_size must be positive, got {group_size}")
    n = blocks.size
    if n == 0:
        return np.empty(0, dtype=np.int64)

    slots = hash_slots(blocks, table.num_entries)
    order, slots_sorted = stable_order(slots)
    blocks_sorted = blocks[order]

    indices = np.arange(n, dtype=np.int64)
    new_slot = np.ones(n, dtype=bool)
    new_slot[1:] = slots_sorted[1:] != slots_sorted[:-1]
    new_block = new_slot.copy()
    new_block[1:] |= blocks_sorted[1:] != blocks_sorted[:-1]

    # Position within the current same-block run; every group_size-th
    # element starts a fresh group (full-group flush).
    run_start_index = np.maximum.accumulate(np.where(new_block, indices, 0))
    position_in_run = indices - run_start_index
    group_boundary = new_block | (position_in_run % group_size == 0)

    first_of_group = np.nonzero(group_boundary)[0]
    next_first = np.append(first_of_group[1:], n)
    # A group is evicted when the next group in the table walk shares its
    # slot (conflict or full-group flush) -- at the *stream time* of that
    # group's first element.  Survivors flush at the end, in slot order.
    has_successor = next_first < n
    same_slot = np.zeros(first_of_group.size, dtype=bool)
    same_slot[has_successor] = (
        slots_sorted[next_first[has_successor]] == slots_sorted[first_of_group[has_successor]]
    )
    eviction_key = np.where(
        same_slot,
        order[np.minimum(next_first, n - 1)],
        n + slots_sorted[first_of_group],
    )

    # Eviction keys are distinct (stream positions for evicted groups,
    # n + slot for the one survivor per slot) and elements of a group are
    # a contiguous run of the slot-sorted array already in stream order,
    # so sorting the *groups* and gathering their ragged segments is
    # equivalent to a full lexsort over all n elements.
    group_rank = stable_order(eviction_key)[0]
    sizes = next_first - first_of_group
    sorted_sizes = sizes[group_rank]
    segment_id = np.repeat(np.arange(group_rank.size, dtype=np.int64), sorted_sizes)
    out_start = np.cumsum(sorted_sizes) - sorted_sizes
    within = indices - out_start[segment_id]
    perm = order[first_of_group[group_rank][segment_id] + within]
    if obs.metrics.enabled:
        sizes = np.diff(np.append(first_of_group, n))
        obs.metrics.histogram("scu.group.size").observe_many(sizes, table=table.name)
        obs.metrics.histogram("scu.group.quality").observe(
            grouping_quality(blocks, perm), table=table.name
        )
        obs.metrics.histogram("scu.hash.occupancy").observe(
            np.unique(slots).size / table.num_entries, table=table.name
        )
    return perm


def group_order_reference(
    blocks: np.ndarray, table: HashTableConfig, *, group_size: int = 8
) -> np.ndarray:
    """Sequential dict-based reference of :func:`group_order`."""
    blocks = np.asarray(blocks, dtype=np.int64)
    slots = hash_slots(blocks, table.num_entries)
    # slot -> (block id, [element indices])
    entries: dict[int, tuple[int, list[int]]] = {}
    output: list[int] = []
    for i, (slot, block) in enumerate(zip(slots.tolist(), blocks.tolist())):
        held = entries.get(slot)
        if held is not None and held[0] == block and len(held[1]) < group_size:
            held[1].append(i)
            continue
        if held is not None:
            output.extend(held[1])  # evict (conflict or full group)
        entries[slot] = (block, [i])
    for slot in sorted(entries):
        output.extend(entries[slot][1])
    return np.asarray(output, dtype=np.int64)


def grouping_quality(blocks: np.ndarray, perm: np.ndarray, *, window: int = 32) -> float:
    """Fraction of adjacent output pairs (within warps) sharing a block.

    A cheap scalar diagnostic of how much locality the grouping created;
    the real evaluation runs the reordered stream through the warp
    coalescer (Figure 12).
    """
    if perm.size < 2:
        return 0.0
    reordered = np.asarray(blocks, dtype=np.int64)[perm]
    same = reordered[1:] == reordered[:-1]
    # Ignore pairs straddling a warp boundary; they never coalesce anyway.
    not_boundary = (np.arange(1, perm.size) % window) != 0
    considered = same[not_boundary]
    if considered.size == 0:
        return 0.0
    return float(considered.mean())
