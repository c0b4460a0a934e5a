"""Tests for hash-table filtering: vectorized == sequential reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    HashTableConfig,
    duplicates_removed_fraction,
    filter_best_cost,
    filter_best_cost_reference,
    filter_unique,
    filter_unique_reference,
    hash_slots,
)
from repro.errors import OperationError

SMALL_TABLE = HashTableConfig("t-small", capacity_bytes=8 * 4, ways=1, bytes_per_entry=4)
BIG_TABLE = HashTableConfig("t-big", capacity_bytes=64 * 1024, ways=16, bytes_per_entry=4)
COST_TABLE = HashTableConfig("t-cost", capacity_bytes=64 * 1024, ways=16, bytes_per_entry=8)


class TestHashSlots:
    def test_in_range(self):
        slots = hash_slots(np.arange(1000), 64)
        assert slots.min() >= 0
        assert slots.max() < 64

    def test_deterministic(self):
        a = hash_slots(np.array([42, 7]), 128)
        b = hash_slots(np.array([42, 7]), 128)
        assert np.array_equal(a, b)

    def test_spreads_sequential_keys(self):
        slots = hash_slots(np.arange(4096), 4096)
        # Multiplicative hashing should use most slots for sequential ids.
        assert np.unique(slots).size > 2048

    def test_rejects_empty_table(self):
        with pytest.raises(OperationError):
            hash_slots(np.array([1]), 0)


class TestFilterUnique:
    def test_exact_duplicates_removed(self):
        ids = np.array([5, 5, 5, 5])
        keep = filter_unique(ids, BIG_TABLE)
        assert list(keep) == [True, False, False, False]

    def test_first_occurrence_always_kept(self):
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 100, size=1000)
        keep = filter_unique(ids, BIG_TABLE)
        # every distinct value survives at least once
        assert set(ids[keep].tolist()) == set(ids.tolist())

    def test_no_duplicates_all_kept_with_big_table(self):
        ids = np.arange(100)
        keep = filter_unique(ids, BIG_TABLE)
        assert keep.all()

    def test_collisions_cause_false_negatives(self):
        # With an 8-entry table, distinct ids evict each other, letting
        # interleaved duplicates survive: lossy but safe.
        ids = np.tile(np.arange(64), 4)
        keep = filter_unique(ids, SMALL_TABLE)
        assert keep.sum() > 64  # some duplicates escaped
        assert set(ids[keep].tolist()) == set(ids.tolist())  # nothing lost

    def test_empty(self):
        assert filter_unique(np.array([], dtype=np.int64), BIG_TABLE).size == 0

    @given(
        st.lists(st.integers(min_value=0, max_value=30), min_size=0, max_size=300),
        st.sampled_from([1, 2, 8, 64, 1024]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, raw, entries):
        table = HashTableConfig("t", capacity_bytes=entries * 4, ways=1, bytes_per_entry=4)
        ids = np.asarray(raw, dtype=np.int64)
        assert np.array_equal(
            filter_unique(ids, table), filter_unique_reference(ids, table)
        )


class TestFilterBestCost:
    def test_better_cost_kept(self):
        ids = np.array([3, 3, 3])
        costs = np.array([5.0, 2.0, 4.0])
        keep = filter_best_cost(ids, costs, COST_TABLE)
        assert list(keep) == [True, True, False]

    def test_equal_cost_dropped(self):
        ids = np.array([3, 3])
        costs = np.array([5.0, 5.0])
        keep = filter_best_cost(ids, costs, COST_TABLE)
        assert list(keep) == [True, False]

    def test_distinct_ids_all_kept(self):
        keep = filter_best_cost(np.arange(50), np.ones(50), COST_TABLE)
        assert keep.all()

    def test_eviction_resets_cost(self):
        # Two ids colliding in a 1-entry table: each arrival evicts the
        # other, so the "seen best cost" is forgotten.
        table = HashTableConfig("t1", capacity_bytes=8, ways=1, bytes_per_entry=8)
        ids = np.array([1, 2, 1])
        costs = np.array([1.0, 1.0, 9.0])
        keep = filter_best_cost(ids, costs, table)
        assert list(keep) == [True, True, True]

    def test_parallel_arrays_checked(self):
        with pytest.raises(OperationError):
            filter_best_cost(np.array([1, 2]), np.array([1.0]), COST_TABLE)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=20),
                st.integers(min_value=0, max_value=15),
            ),
            min_size=0,
            max_size=300,
        ),
        st.sampled_from([1, 2, 8, 64, 1024]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, pairs, entries):
        table = HashTableConfig("t", capacity_bytes=entries * 8, ways=1, bytes_per_entry=8)
        ids = np.array([p[0] for p in pairs], dtype=np.int64)
        costs = np.array([float(p[1]) for p in pairs])
        assert np.array_equal(
            filter_best_cost(ids, costs, table),
            filter_best_cost_reference(ids, costs, table),
        )

    def test_infinite_cost_keeps_first_occurrences(self):
        ids = np.array([5, 5])
        costs = np.array([np.inf, 1.0])
        want = filter_best_cost_reference(ids, costs, COST_TABLE)
        assert want.tolist() == [True, True]
        assert filter_best_cost(ids, costs, COST_TABLE).tolist() == want.tolist()

    def test_equal_fractional_duplicate_dropped_beside_a_large_cost(self):
        # 3,000 distinct ids, one cost of 1e6, and an equal-cost duplicate
        # of the lowest-slot id: costs offset by multiples of a float span
        # round, and the duplicate would compare as an improvement.
        rng = np.random.default_rng(8)
        ids = rng.permutation(100_000)[:3000].astype(np.int64)
        costs = rng.random(3000) * 10
        costs[rng.integers(3000)] = 1e6
        low = int(np.argmin(hash_slots(ids, COST_TABLE.num_entries)))
        costs[low] = 1.01
        ids = np.append(ids, ids[low])
        costs = np.append(costs, 1.01)
        want = filter_best_cost_reference(ids, costs, COST_TABLE)
        assert not want[-1]
        assert filter_best_cost(ids, costs, COST_TABLE).tolist() == want.tolist()

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=40),
                st.one_of(
                    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                    st.sampled_from([0.0, 0.1, 1.01, 1e6, np.inf]),
                ),
            ),
            min_size=0,
            max_size=400,
        ),
        st.sampled_from([1, 2, 8, 64, 1024]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_on_fractional_and_infinite_costs(self, pairs, entries):
        table = HashTableConfig("t", capacity_bytes=entries * 8, ways=1, bytes_per_entry=8)
        ids = np.array([p[0] for p in pairs], dtype=np.int64)
        costs = np.array([p[1] for p in pairs], dtype=np.float64)
        assert np.array_equal(
            filter_best_cost(ids, costs, table),
            filter_best_cost_reference(ids, costs, table),
        )


class TestEffectiveness:
    def test_duplicates_removed_fraction(self):
        keep = np.array([True, False, False, True])
        assert duplicates_removed_fraction(keep) == 0.5

    def test_empty_fraction(self):
        assert duplicates_removed_fraction(np.array([], dtype=bool)) == 0.0

    def test_larger_table_filters_no_worse(self):
        """Table 2's size knob: bigger hash -> more duplicates caught."""
        rng = np.random.default_rng(5)
        # heavy duplication, ids spread over a big range
        ids = rng.integers(0, 5000, size=50_000)
        small = HashTableConfig("s", 256 * 4, 1, 4)
        large = HashTableConfig("l", 16384 * 4, 1, 4)
        removed_small = duplicates_removed_fraction(filter_unique(ids, small))
        removed_large = duplicates_removed_fraction(filter_unique(ids, large))
        assert removed_large > removed_small

    def test_paper_scale_removal_rate(self):
        """A Table 2-sized hash removes the vast majority of duplicates."""
        rng = np.random.default_rng(6)
        ids = rng.integers(0, 16384, size=200_000)  # ~92% duplicates
        table = HashTableConfig("bfs", 132 * 1024, 16, 4)  # TX1 BFS table
        keep = filter_unique(ids, table)
        duplicate_rate = 1 - np.unique(ids).size / ids.size
        removed = duplicates_removed_fraction(keep)
        assert removed > 0.8 * duplicate_rate
