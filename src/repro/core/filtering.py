"""Duplicate filtering with the in-memory hash table (Section 4.2).

Two schemes, as in the paper:

* **unique-element** (BFS): an element is kept unless the hash entry it
  maps to currently holds the same element id (a duplicate was seen and
  not yet evicted).  Collisions overwrite, so filtering is *lossy* —
  some duplicates survive — but never drops a first occurrence.

* **unique-best-cost** (SSSP): the entry additionally stores a cost; a
  duplicate is kept only when it improves on the best cost seen while
  its id owned the entry.

Both are implemented twice: a dict-based sequential reference (the
hardware's literal algorithm) and a vectorized version used by the
experiments.  Property tests assert they are identical; the vectorized
form makes million-element frontiers tractable in Python.

The vectorization relies on an observation about the overwrite
discipline: the table state seen by element *i* at its slot is fully
determined by the *previous element mapping to the same slot*.  Sorting
(stably, with :func:`~repro.core.ops.stable_order`) by slot therefore
turns the table walk into run-boundary comparisons.  The best-cost
scheme then needs, per run of one id, the minimum of the earlier costs:
an exact segmented prefix-min over the costs' integer ranks
(:func:`improves_in_segment`), so fractional and infinite costs filter
exactly as the reference does.
"""

from __future__ import annotations

import numpy as np

from ..errors import OperationError
from ..obs import NULL_OBS, Observability
from .config import HashTableConfig
from .hashtable import hash_slots
from .ops import stable_order


def improves_in_segment(costs: np.ndarray, segment_start: np.ndarray) -> np.ndarray:
    """True where a cost is strictly below every earlier cost of its segment.

    ``segment_start`` marks the first element of each segment, which
    always improves.  The comparisons run on the costs' integer ranks
    (``np.unique`` inverse indices): strict ``<`` on ranks is strict
    ``<`` on costs, fractional and infinite costs included.  The
    segmented prefix-min offsets each segment by a multiple of the rank
    span, so earlier segments, strictly larger after the shift, cannot
    reach a later segment's running minimum; in int64 the shift
    round-trip is exact.
    """
    ranks = np.unique(costs, return_inverse=True)[1].astype(np.int64, copy=False)
    num_ranks = np.int64(ranks.max()) + 1  # the integer stand-in for +inf
    seg_id = np.cumsum(segment_start) - 1
    shift = (seg_id[-1] + 1 - seg_id) * (num_ranks + 1)
    cummin = np.minimum.accumulate(ranks + shift)
    prev_best = np.empty_like(cummin)
    prev_best[0] = 0  # overwritten below: position 0 is always a segment start
    prev_best[1:] = cummin[:-1]
    prev_best -= shift
    prev_best[segment_start] = num_ranks
    return ranks < prev_best


def filter_unique(
    ids: np.ndarray, table: HashTableConfig, *, obs: Observability = NULL_OBS
) -> np.ndarray:
    """Unique-element filtering; returns the keep bitmask (vectorized)."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise OperationError("ids must be one-dimensional")
    if ids.size == 0:
        return np.zeros(0, dtype=bool)
    slots = hash_slots(ids, table.num_entries)
    order, slots_sorted = stable_order(slots)
    ids_sorted = ids[order]
    new_slot = np.ones(ids.size, dtype=bool)
    new_slot[1:] = slots_sorted[1:] != slots_sorted[:-1]
    same_as_prev = np.zeros(ids.size, dtype=bool)
    same_as_prev[1:] = ids_sorted[1:] == ids_sorted[:-1]
    keep_sorted = new_slot | ~same_as_prev
    keep = np.empty(ids.size, dtype=bool)
    keep[order] = keep_sorted
    _record_filter_metrics(obs, "unique", table, slots, keep)
    return keep


def _record_filter_metrics(
    obs: Observability,
    scheme: str,
    table: HashTableConfig,
    slots: np.ndarray,
    keep: np.ndarray,
) -> None:
    """Keep rate and hash-table pressure of one filtering pass."""
    if not obs.metrics.enabled:
        return
    metrics = obs.metrics
    metrics.histogram("scu.filter.keep_rate").observe(
        float(keep.mean()), scheme=scheme
    )
    metrics.counter("scu.filter.elements").inc(keep.size, scheme=scheme)
    metrics.counter("scu.filter.dropped").inc(int(keep.size - keep.sum()), scheme=scheme)
    # Occupancy: distinct entries this pass touched vs table capacity —
    # the pressure regime the Table 2 sizes were chosen for.
    metrics.histogram("scu.hash.occupancy").observe(
        np.unique(slots).size / table.num_entries, table=table.name
    )


def filter_unique_reference(ids: np.ndarray, table: HashTableConfig) -> np.ndarray:
    """Sequential dict-based reference of :func:`filter_unique`."""
    ids = np.asarray(ids, dtype=np.int64)
    slots = hash_slots(ids, table.num_entries)
    entries: dict[int, int] = {}
    keep = np.zeros(ids.size, dtype=bool)
    for i, (slot, element) in enumerate(zip(slots.tolist(), ids.tolist())):
        if entries.get(slot) == element:
            continue  # duplicate detected: discard
        entries[slot] = element  # store or overwrite-on-collision
        keep[i] = True
    return keep


def filter_best_cost(
    ids: np.ndarray,
    costs: np.ndarray,
    table: HashTableConfig,
    *,
    obs: Observability = NULL_OBS,
) -> np.ndarray:
    """Unique-best-cost filtering; returns the keep bitmask (vectorized)."""
    ids = np.asarray(ids, dtype=np.int64)
    costs = np.asarray(costs, dtype=np.float64)
    if ids.shape != costs.shape:
        raise OperationError("ids and costs must be parallel arrays")
    if ids.size == 0:
        return np.zeros(0, dtype=bool)
    slots = hash_slots(ids, table.num_entries)
    order, slots_sorted = stable_order(slots)
    ids_sorted = ids[order]
    # A "segment" is a maximal run where the entry continuously holds the
    # same id: it breaks when the slot changes or a different id evicts.
    segment_start = np.ones(ids.size, dtype=bool)
    segment_start[1:] = (slots_sorted[1:] != slots_sorted[:-1]) | (
        ids_sorted[1:] != ids_sorted[:-1]
    )
    keep_sorted = improves_in_segment(costs[order], segment_start)
    keep = np.empty(ids.size, dtype=bool)
    keep[order] = keep_sorted
    _record_filter_metrics(obs, "best_cost", table, slots, keep)
    return keep


def filter_best_cost_reference(
    ids: np.ndarray, costs: np.ndarray, table: HashTableConfig
) -> np.ndarray:
    """Sequential dict-based reference of :func:`filter_best_cost`."""
    ids = np.asarray(ids, dtype=np.int64)
    costs = np.asarray(costs, dtype=np.float64)
    slots = hash_slots(ids, table.num_entries)
    entries: dict[int, tuple[int, float]] = {}
    keep = np.zeros(ids.size, dtype=bool)
    for i, (slot, element, cost) in enumerate(
        zip(slots.tolist(), ids.tolist(), costs.tolist())
    ):
        held = entries.get(slot)
        if held is not None and held[0] == element:
            if cost < held[1]:
                entries[slot] = (element, cost)
                keep[i] = True
            continue
        entries[slot] = (element, cost)
        keep[i] = True
    return keep


def duplicates_removed_fraction(keep: np.ndarray) -> float:
    """Fraction of the stream the filter discarded."""
    if keep.size == 0:
        return 0.0
    return float(1.0 - keep.sum() / keep.size)
