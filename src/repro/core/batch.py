"""Batched (leading batch axis) forms of the SCU compaction kernels.

A *batch* is a ragged stack of per-request streams stored as one
concatenated ``values`` array plus an int64 ``offsets`` array of length
``B + 1`` (row ``r`` is ``values[offsets[r]:offsets[r + 1]]``).  Every
kernel here processes all rows in **one** NumPy pass — one keyed sort,
one scan, one scatter for the whole batch — and is pinned byte-identical,
row by row, to the scalar kernels in :mod:`repro.core.filtering`,
:mod:`repro.core.grouping`, and :mod:`repro.core.ops`.

The fusion trick is the composite sort key ``row * K + local_key`` with
``K`` an upper bound on the local key: a single stable sort
(:func:`~repro.core.ops.stable_order`) over the composite key yields,
inside each row, exactly the stable slot-sort the scalar kernels
perform, while keeping rows contiguous.  Row boundaries
always coincide with composite-key changes, so the run-boundary logic
(``new_slot`` / ``segment_start`` / ``new_block``) needs no extra
boundary handling.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..errors import OperationError
from .config import HashTableConfig
from .filtering import improves_in_segment
from .hashtable import hash_slots
from .ops import exclusive_scan, stable_order

__all__ = [
    "batch_offsets",
    "concat_batch",
    "split_batch",
    "data_compaction_batch",
    "filter_unique_batch",
    "filter_best_cost_batch",
    "group_order_batch",
]


def batch_offsets(sizes: Sequence[int]) -> np.ndarray:
    """Offsets array (length ``B + 1``) for rows of the given sizes."""
    cnt = np.asarray(sizes, dtype=np.int64)
    if cnt.ndim != 1:
        raise OperationError(f"sizes must be one-dimensional, got shape {cnt.shape}")
    if cnt.size and cnt.min() < 0:
        raise OperationError("batch row sizes must be non-negative")
    out = np.zeros(cnt.size + 1, dtype=np.int64)
    np.cumsum(cnt, out=out[1:])
    return out


def concat_batch(rows: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Stack per-request streams into the ``(values, offsets)`` ragged form."""
    arrays = [np.asarray(row) for row in rows]
    for row in arrays:
        if row.ndim != 1:
            raise OperationError("every batch row must be one-dimensional")
    offsets = batch_offsets([row.size for row in arrays])
    if not arrays:
        return np.empty(0, dtype=np.int64), offsets
    return np.concatenate(arrays) if len(arrays) > 1 else arrays[0].copy(), offsets


def split_batch(values: np.ndarray, offsets: np.ndarray) -> List[np.ndarray]:
    """Split a batched result back into per-request arrays (views)."""
    values, offsets = _check_batch(values, offsets)
    return [values[offsets[r] : offsets[r + 1]] for r in range(offsets.size - 1)]


def _check_batch(values: np.ndarray, offsets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    values = np.asarray(values)
    offsets = np.asarray(offsets, dtype=np.int64)
    if values.ndim != 1:
        raise OperationError(f"batch values must be one-dimensional, got {values.shape}")
    if offsets.ndim != 1 or offsets.size < 1:
        raise OperationError("offsets must be a one-dimensional array of length B + 1")
    if offsets[0] != 0 or offsets[-1] != values.size:
        raise OperationError(
            f"offsets must span the values array: got [{offsets[0]}, {offsets[-1]}] "
            f"for {values.size} values"
        )
    if offsets.size > 1 and np.any(np.diff(offsets) < 0):
        raise OperationError("offsets must be non-decreasing")
    return values, offsets


def _row_ids(offsets: np.ndarray) -> np.ndarray:
    """Row id of each element: ``repeat(arange(B), sizes)``."""
    sizes = np.diff(offsets)
    return np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)


def data_compaction_batch(
    values: np.ndarray, offsets: np.ndarray, bitmask: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched scan + scatter compaction; returns ``(out, out_offsets)``.

    Rows are contiguous, so one *global* exclusive scan of the bitmask
    already yields row-major output addresses; each output row equals
    the scalar :func:`~repro.core.ops.data_compaction` of its input row.
    """
    values, offsets = _check_batch(values, offsets)
    mask = np.asarray(bitmask)
    if mask.shape != values.shape or mask.dtype != np.bool_:
        raise OperationError("bitmask must be a boolean array parallel to values")
    addresses = exclusive_scan(mask.astype(np.int64))
    out = np.empty(int(np.count_nonzero(mask)), dtype=values.dtype)
    out[addresses[mask]] = values[mask]
    num_rows = offsets.size - 1
    kept_per_row = np.bincount(_row_ids(offsets)[mask], minlength=num_rows)
    out_offsets = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(kept_per_row, out=out_offsets[1:])
    return out, out_offsets


def filter_unique_batch(
    ids: np.ndarray, offsets: np.ndarray, table: HashTableConfig
) -> np.ndarray:
    """Batched unique-element filtering; one keep bitmask over all rows.

    Row ``r`` of the result is byte-identical to
    ``filter_unique(ids[offsets[r]:offsets[r+1]], table)``.
    """
    ids, offsets = _check_batch(np.asarray(ids, dtype=np.int64), offsets)
    if ids.size == 0:
        return np.zeros(0, dtype=bool)
    entries = np.int64(table.num_entries)
    slots = hash_slots(ids, table.num_entries)
    key = _row_ids(offsets) * entries + slots
    order, key_sorted = stable_order(key)
    ids_sorted = ids[order]
    # A row boundary always changes the composite key, so new_slot is
    # forced True there and rows cannot contaminate each other.
    new_slot = np.ones(ids.size, dtype=bool)
    new_slot[1:] = key_sorted[1:] != key_sorted[:-1]
    same_as_prev = np.zeros(ids.size, dtype=bool)
    same_as_prev[1:] = ids_sorted[1:] == ids_sorted[:-1]
    keep_sorted = new_slot | ~same_as_prev
    keep = np.empty(ids.size, dtype=bool)
    keep[order] = keep_sorted
    return keep


def filter_best_cost_batch(
    ids: np.ndarray,
    costs: np.ndarray,
    offsets: np.ndarray,
    table: HashTableConfig,
) -> np.ndarray:
    """Batched unique-best-cost filtering; one keep bitmask over all rows.

    Row ``r`` of the result is byte-identical to
    ``filter_best_cost(ids[offsets[r]:offsets[r+1]], ...)``: both compare
    integer cost ranks (:func:`~repro.core.filtering.improves_in_segment`),
    and ranks over the whole batch order each row's costs as its own do.
    """
    ids, offsets = _check_batch(np.asarray(ids, dtype=np.int64), offsets)
    costs = np.asarray(costs, dtype=np.float64)
    if ids.shape != costs.shape:
        raise OperationError("ids and costs must be parallel arrays")
    if ids.size == 0:
        return np.zeros(0, dtype=bool)
    entries = np.int64(table.num_entries)
    slots = hash_slots(ids, table.num_entries)
    key = _row_ids(offsets) * entries + slots
    order, key_sorted = stable_order(key)
    ids_sorted = ids[order]
    # Segments: maximal runs where one id continuously owns one entry of
    # one row's table.  Row boundaries change the key, breaking segments.
    segment_start = np.ones(ids.size, dtype=bool)
    segment_start[1:] = (key_sorted[1:] != key_sorted[:-1]) | (
        ids_sorted[1:] != ids_sorted[:-1]
    )
    keep_sorted = improves_in_segment(costs[order], segment_start)
    keep = np.empty(ids.size, dtype=bool)
    keep[order] = keep_sorted
    return keep


def group_order_batch(
    blocks: np.ndarray,
    offsets: np.ndarray,
    table: HashTableConfig,
    *,
    group_size: int = 8,
) -> np.ndarray:
    """Batched cache-line grouping; one permutation over the whole batch.

    Returns global flat indices such that ``output = values[perm]`` and
    every row stays in place: ``perm[offsets[r]:offsets[r+1]]`` is row
    ``r``'s scalar :func:`~repro.core.grouping.group_order` permutation
    plus ``offsets[r]``.  The same ``offsets`` therefore describe the
    output batch.
    """
    blocks, offsets = _check_batch(np.asarray(blocks, dtype=np.int64), offsets)
    if group_size <= 0:
        raise OperationError(f"group_size must be positive, got {group_size}")
    n = blocks.size
    if n == 0:
        return np.empty(0, dtype=np.int64)

    sizes = np.diff(offsets)
    row = _row_ids(offsets)
    # Row-local stream position of each element, in original order: the
    # scalar algorithm's eviction keys are exactly these.
    local = np.arange(n, dtype=np.int64) - offsets[row]
    entries = np.int64(table.num_entries)
    slots = hash_slots(blocks, table.num_entries)
    key = row * entries + slots
    order, key_sorted = stable_order(key)
    blocks_sorted = blocks[order]

    indices = np.arange(n, dtype=np.int64)
    new_slot = np.ones(n, dtype=bool)
    new_slot[1:] = key_sorted[1:] != key_sorted[:-1]
    new_block = new_slot.copy()
    new_block[1:] |= blocks_sorted[1:] != blocks_sorted[:-1]

    run_start_index = np.maximum.accumulate(np.where(new_block, indices, 0))
    position_in_run = indices - run_start_index
    group_boundary = new_block | (position_in_run % group_size == 0)

    first_of_group = np.nonzero(group_boundary)[0]
    next_first = np.append(first_of_group[1:], n)
    has_successor = next_first < n
    # Same composite key == same row *and* same slot: a group whose
    # successor lives in the next row correctly counts as a survivor.
    same_slot = np.zeros(first_of_group.size, dtype=bool)
    same_slot[has_successor] = (
        key_sorted[next_first[has_successor]] == key_sorted[first_of_group[has_successor]]
    )

    local_sorted = local[order]
    row_of_group = row[order][first_of_group]
    slot_of_group = key_sorted[first_of_group] - row_of_group * entries
    # Scalar per-row keys: evicting element's stream position (< n_r) for
    # evicted groups, n_r + slot for survivors.  ``base`` bounds both, so
    # row-composited keys sort rows contiguously with the scalar order
    # inside each row.
    local_key = np.where(
        same_slot,
        local_sorted[np.minimum(next_first, n - 1)],
        sizes[row_of_group] + slot_of_group,
    )
    base = np.int64(sizes.max()) + entries
    group_rank = stable_order(row_of_group * base + local_key)[0]

    group_sizes = next_first - first_of_group
    sorted_sizes = group_sizes[group_rank]
    segment_id = np.repeat(np.arange(group_rank.size, dtype=np.int64), sorted_sizes)
    out_start = np.cumsum(sorted_sizes) - sorted_sizes
    within = indices - out_start[segment_id]
    return order[first_of_group[group_rank][segment_id] + within]
