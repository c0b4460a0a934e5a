"""Functional semantics of the five SCU compaction operations.

These are the operations of Figure 6 of the paper, implemented exactly
as the hardware performs them (sequential semantics, vectorized
execution).  The :class:`~repro.core.unit.StreamCompactionUnit` wraps
them with the cost model; this module is pure data transformation and is
independently property-tested.

Comparison operators for the Bitmask Constructor are the six integer
comparisons the hardware comparator implements.

:func:`stable_order` is the keyed-order kernel behind every hash-table
model (filtering, grouping) and the GPU's culling
heuristics: the stable sort by slot, id or composite key that turns a
sequential table walk into run-boundary comparisons.

Access Expansion is split so the cost model can reuse its pieces:
:func:`expansion_ranges` makes every input check once,
:func:`expanded_indices` builds the ragged element index (one
``np.arange`` when :func:`back_to_back_start` finds the ranges back to
back), and the unit gathers values and prices addresses through it.
:func:`expansion_run` also returns that run's start, so a cost model
prices it as an in-order walk without checking the ranges again.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from ..errors import OperationError

#: Comparison operators available to the Bitmask Constructor.
COMPARISONS: Mapping[str, Callable[[np.ndarray, float], np.ndarray]] = {
    "eq": lambda data, ref: data == ref,
    "ne": lambda data, ref: data != ref,
    "lt": lambda data, ref: data < ref,
    "le": lambda data, ref: data <= ref,
    "gt": lambda data, ref: data > ref,
    "ge": lambda data, ref: data >= ref,
}


def _as_1d(values: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise OperationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def _check_mask(bitmask: np.ndarray, length: int, name: str = "bitmask") -> np.ndarray:
    mask = _as_1d(bitmask, name)
    if mask.dtype != np.bool_:
        raise OperationError(f"{name} must be boolean, got dtype {mask.dtype}")
    if mask.size != length:
        raise OperationError(f"{name} length {mask.size} != data length {length}")
    return mask


def bitmask_constructor(data: np.ndarray, comparison: str, reference: float) -> np.ndarray:
    """Generate a bitmask: True where ``data <comparison> reference`` holds."""
    arr = _as_1d(data, "data")
    if comparison not in COMPARISONS:
        known = ", ".join(COMPARISONS)
        raise OperationError(f"unknown comparison {comparison!r}; supported: {known}")
    return COMPARISONS[comparison](arr, reference)


def exclusive_scan(values: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum: ``out[i] = sum(values[:i])``, ``out[0] = 0``.

    The scatter-address generator of every compaction below.  Integer
    inputs scan in int64 so addresses never overflow or round.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise OperationError(f"values must be one-dimensional, got shape {arr.shape}")
    out = np.zeros(arr.size, dtype=np.int64)
    np.cumsum(arr[:-1], out=out[1:])
    return out


def stable_order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, sorted keys)`` of a stable sort along the last axis.

    ``order`` is ``np.argsort(keys, axis=-1, kind="stable")``, which
    stays the spec; the sorted keys are ``keys`` taken along ``order``.
    Non-negative integer keys that leave room for the ``s =
    n.bit_length()`` position bits in an int64 (``n`` the last axis's
    length) sort as one in-place ``np.sort`` of ``key << s | position``:
    every packed value is distinct, so the unstable sort is the stable
    order, and it splits back into ``packed >> s`` and ``packed & mask``.
    """
    keys = np.asarray(keys)
    n = keys.shape[-1]
    shift = n.bit_length()
    # The OR of all keys is below 2**(63 - shift) exactly when every key
    # is non-negative (no sign bit set) and below that limit.
    if (
        keys.dtype.kind in "iu"
        and keys.size
        and int(np.bitwise_or.reduce(keys, axis=None)) >> (63 - shift) == 0
    ):
        packed = keys.astype(np.int64)
        packed <<= shift
        packed |= np.arange(n, dtype=np.int64)
        packed.sort(axis=-1)
        order = packed & ((1 << shift) - 1)
        packed >>= shift
        return order, packed.astype(keys.dtype, copy=False)
    order = np.argsort(keys, axis=-1, kind="stable")
    return order, np.take_along_axis(keys, order, axis=-1)


def compaction_addresses(bitmask: np.ndarray) -> np.ndarray:
    """Output address of each *kept* element: the exclusive scan of the mask.

    ``addresses[i]`` is only meaningful where ``bitmask[i]`` is set; the
    scatter ``out[addresses[mask]] = data[mask]`` is order-preserving
    because the scan is monotone over kept positions.
    """
    mask = _as_1d(bitmask, "bitmask")
    if mask.dtype != np.bool_:
        raise OperationError(f"bitmask must be boolean, got dtype {mask.dtype}")
    return exclusive_scan(mask.astype(np.int64))


def data_compaction(data: np.ndarray, bitmask: np.ndarray) -> np.ndarray:
    """Keep the elements whose bitmask bit is set, preserving order.

    Implemented in the hardware's explicit exclusive-scan + scatter form
    (Figure 6): the scan of the bitmask yields each kept element's output
    address, then a single scatter writes the compacted stream.
    """
    arr = _as_1d(data, "data")
    mask = _check_mask(bitmask, arr.size)
    addresses = compaction_addresses(mask)
    kept = int(np.count_nonzero(mask))
    out = np.empty(kept, dtype=arr.dtype)
    out[addresses[mask]] = arr[mask]
    return out


def access_compaction(
    data: np.ndarray, indexes: np.ndarray, bitmask: np.ndarray
) -> np.ndarray:
    """Gather ``data[indexes]`` for the index entries whose bit is set."""
    arr = _as_1d(data, "data")
    idx = _as_1d(indexes, "indexes").astype(np.int64)
    mask = _check_mask(bitmask, idx.size)
    # Scan + scatter over the index stream, then one gather through it.
    valid = data_compaction(idx, mask)
    if valid.size and (valid.min() < 0 or valid.max() >= arr.size):
        raise OperationError("index out of range in access compaction")
    return arr[valid]


def replication_compaction(
    data: np.ndarray, count: np.ndarray, bitmask: np.ndarray | None = None
) -> np.ndarray:
    """Replicate each valid element ``count[i]`` times, preserving order."""
    arr = _as_1d(data, "data")
    cnt = _as_1d(count, "count").astype(np.int64)
    if cnt.size != arr.size:
        raise OperationError(f"count length {cnt.size} != data length {arr.size}")
    if cnt.size and cnt.min() < 0:
        raise OperationError("replication counts must be non-negative")
    if bitmask is not None:
        mask = _check_mask(bitmask, arr.size)
        arr, cnt = arr[mask], cnt[mask]
    return np.repeat(arr, cnt)


def access_expansion_compaction(
    data: np.ndarray,
    indexes: np.ndarray,
    count: np.ndarray,
    bitmask: np.ndarray | None = None,
) -> np.ndarray:
    """Gather ``count[i]`` consecutive elements starting at ``indexes[i]``.

    This is the CSR adjacency gather: with ``indexes`` the adjacency
    offsets of frontier nodes and ``count`` their degrees, the output is
    the edge frontier.
    """
    idx, cnt = expansion_ranges(data, indexes, count, bitmask)
    return np.asarray(data)[expanded_indices(idx, cnt)]


def expansion_ranges(
    data: np.ndarray,
    indexes: np.ndarray,
    count: np.ndarray,
    bitmask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(indexes, count)`` ranges an Access Expansion of ``data``
    gathers: the index entries ``bitmask`` keeps, each checked to lie
    inside the data.  Every input check of the operation happens here."""
    size = _as_1d(data, "data").size
    idx, cnt = _ranges(indexes, count)
    if bitmask is not None:
        mask = _check_mask(bitmask, idx.size)
        idx, cnt = idx[mask], cnt[mask]
    if idx.size and (idx.min() < 0 or (idx + cnt).max() > size):
        raise OperationError("expansion range out of bounds")
    return idx, cnt


def _ranges(indexes: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    idx = _as_1d(indexes, "indexes").astype(np.int64, copy=False)
    cnt = _as_1d(count, "count").astype(np.int64, copy=False)
    if idx.size != cnt.size:
        raise OperationError(f"indexes length {idx.size} != count length {cnt.size}")
    if cnt.size and cnt.min() < 0:
        raise OperationError("expansion counts must be non-negative")
    return idx, cnt


def back_to_back_start(indexes: np.ndarray, count: np.ndarray) -> int | None:
    """``indexes[0]`` when every range starts where the previous one ends,
    so the expansion is the one run ``arange(indexes[0], indexes[0] +
    count.sum())``; ``None`` otherwise (or with no ranges).  Expects
    int64 arrays of equal length, as :func:`expansion_ranges` returns."""
    if indexes.size == 0:
        return None
    # The first boundary alone turns away almost every ragged frontier,
    # before the comparison of all of them.
    if indexes.size > 1 and indexes[1] != indexes[0] + count[0]:
        return None
    if not (indexes[1:] == indexes[:-1] + count[:-1]).all():
        return None
    return int(indexes[0])


def expanded_indices(indexes: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Element indices an Access Expansion gathers (vectorized ragged range).

    For ``indexes=[5, 0]``, ``count=[2, 3]`` the result is
    ``[5, 6, 0, 1, 2]``.  Exposed separately because the cost model needs
    the gather's *addresses*, not just its values.  Back-to-back ranges
    (:func:`back_to_back_start`) are one ``np.arange``.
    """
    return expansion_run(indexes, count)[0]


def expansion_run(indexes: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, int | None]:
    """:func:`expanded_indices`, and the start of the one run they are
    when the ranges are back to back (:func:`back_to_back_start`; a whole
    CSR adjacency), else ``None``."""
    idx, cnt = _ranges(indexes, count)
    start = back_to_back_start(idx, cnt)
    total = int(cnt.sum())
    if start is not None:
        return np.arange(start, start + total, dtype=np.int64), start
    if total == 0:
        return np.empty(0, dtype=np.int64), None
    # Standard ragged-range construction: exclusive-scan offsets + base.
    starts = exclusive_scan(cnt)
    flat = np.arange(total, dtype=np.int64)
    slot = np.repeat(np.arange(cnt.size, dtype=np.int64), cnt)
    return idx[slot] + (flat - starts[slot]), None
