"""Tests for the functional semantics of the five SCU operations (Figure 6)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    access_compaction,
    access_expansion_compaction,
    bitmask_constructor,
    compaction_addresses,
    data_compaction,
    exclusive_scan,
    expanded_indices,
    replication_compaction,
)
from repro.core.ops import back_to_back_start, expansion_run, stable_order
from repro.errors import OperationError


class TestBitmaskConstructor:
    def test_greater_than(self):
        mask = bitmask_constructor(np.array([1, 5, 3]), "gt", 2)
        assert list(mask) == [False, True, True]

    @pytest.mark.parametrize(
        "op,expected",
        [
            ("eq", [False, True, False]),
            ("ne", [True, False, True]),
            ("lt", [True, False, False]),
            ("le", [True, True, False]),
            ("gt", [False, False, True]),
            ("ge", [False, True, True]),
        ],
    )
    def test_all_comparisons(self, op, expected):
        mask = bitmask_constructor(np.array([1, 2, 3]), op, 2)
        assert list(mask) == expected

    def test_unknown_comparison_rejected(self):
        with pytest.raises(OperationError, match="unknown comparison"):
            bitmask_constructor(np.array([1]), "xor", 0)

    def test_2d_input_rejected(self):
        with pytest.raises(OperationError):
            bitmask_constructor(np.zeros((2, 2)), "eq", 0)


class TestDataCompaction:
    def test_figure6_example(self):
        # Figure 6: data [A, B, C], bitmask [1, 0, 1] -> [A, C].
        data = np.array([10, 20, 30])
        mask = np.array([True, False, True])
        assert list(data_compaction(data, mask)) == [10, 30]

    def test_order_preserved(self):
        data = np.arange(100)
        mask = data % 3 == 0
        out = data_compaction(data, mask)
        assert np.all(np.diff(out) > 0)

    def test_empty_mask_rejects_nothing(self):
        out = data_compaction(np.array([], dtype=np.int64), np.array([], dtype=bool))
        assert out.size == 0

    def test_mask_length_checked(self):
        with pytest.raises(OperationError, match="length"):
            data_compaction(np.array([1, 2]), np.array([True]))

    def test_mask_dtype_checked(self):
        with pytest.raises(OperationError, match="boolean"):
            data_compaction(np.array([1, 2]), np.array([1, 0]))


class TestScanScatter:
    def test_exclusive_scan(self):
        assert list(exclusive_scan(np.array([3, 1, 4]))) == [0, 3, 4]

    def test_exclusive_scan_empty(self):
        assert exclusive_scan(np.array([], dtype=np.int64)).size == 0

    def test_compaction_addresses_are_output_slots(self):
        mask = np.array([True, False, True, True])
        assert list(compaction_addresses(mask)) == [0, 1, 1, 2]

    def test_data_compaction_is_scan_scatter(self):
        data = np.array([10, 20, 30, 40])
        mask = np.array([True, False, False, True])
        assert list(data_compaction(data, mask)) == [10, 40]


class TestAccessCompaction:
    def test_figure6_example(self):
        # Figure 6: indexes [1, 7, 2], bitmask [1, 0, 1] -> data[[1, 2]] = [B, C].
        data = np.array([100, 101, 102, 103, 104, 105, 106, 107])
        indexes = np.array([1, 7, 2])
        mask = np.array([True, False, True])
        assert list(access_compaction(data, indexes, mask)) == [101, 102]

    def test_out_of_range_index_rejected(self):
        with pytest.raises(OperationError, match="out of range"):
            access_compaction(np.array([1]), np.array([5]), np.array([True]))

    def test_masked_out_invalid_index_is_fine(self):
        # The hardware never fetches filtered entries.
        out = access_compaction(np.array([1]), np.array([5]), np.array([False]))
        assert out.size == 0


class TestReplicationCompaction:
    def test_figure6_example(self):
        # Figure 6: data [A, B, C], count [4, 2, 1], bitmask [0, 1, 1] -> [B, B, C].
        data = np.array([10, 20, 30])
        count = np.array([4, 2, 1])
        mask = np.array([False, True, True])
        assert list(replication_compaction(data, count, mask)) == [20, 20, 30]

    def test_no_mask_replicates_all(self):
        out = replication_compaction(np.array([7, 8]), np.array([2, 3]))
        assert list(out) == [7, 7, 8, 8, 8]

    def test_zero_count_drops_element(self):
        out = replication_compaction(np.array([7, 8]), np.array([0, 1]))
        assert list(out) == [8]

    def test_negative_count_rejected(self):
        with pytest.raises(OperationError, match="non-negative"):
            replication_compaction(np.array([1]), np.array([-1]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(OperationError):
            replication_compaction(np.array([1, 2]), np.array([1]))


class TestAccessExpansionCompaction:
    def test_figure6_example(self):
        # Figure 6: indexes [3, 2, 1], count [5, 0, 2], bitmask [1, 0, 1]
        # -> data[3:8] ++ data[1:3].
        data = np.arange(100, 110)
        indexes = np.array([3, 2, 1])
        count = np.array([5, 0, 2])
        mask = np.array([True, False, True])
        out = access_expansion_compaction(data, indexes, count, mask)
        assert list(out) == [103, 104, 105, 106, 107, 101, 102]

    def test_csr_expansion(self):
        """With CSR offsets/degrees this is the edge-frontier gather."""
        edges = np.array([1, 2, 3, 4, 5, 5, 2, 6])  # paper Figure 2
        offsets = np.array([0, 3, 5])  # adjacency starts of nodes A, B, C
        degrees = np.array([3, 2, 1])
        out = access_expansion_compaction(edges, offsets, degrees)
        assert list(out) == [1, 2, 3, 4, 5, 5]  # edge frontier of {A, B, C}

    def test_range_out_of_bounds_rejected(self):
        with pytest.raises(OperationError, match="out of bounds"):
            access_expansion_compaction(
                np.arange(4), np.array([2]), np.array([5])
            )

    def test_empty_input(self):
        out = access_expansion_compaction(
            np.arange(4),
            np.array([], dtype=np.int64),
            np.array([], dtype=np.int64),
        )
        assert out.size == 0


@st.composite
def segments(draw):
    """``(shape, [(start, count), ...])``: back-to-back ranges (each
    starting where the previous one ends, zero counts included), the same
    with one later start off by one, or independent ranges.  A single
    range is back to back by itself."""
    shape = draw(st.sampled_from(["back-to-back", "near-miss", "independent"]))
    counts = draw(
        st.lists(
            st.one_of(st.just(0), st.integers(min_value=0, max_value=8)),
            min_size=2 if shape == "near-miss" else 1,
            max_size=20,
        )
    )
    if shape == "independent":
        starts = draw(
            st.lists(
                st.integers(min_value=0, max_value=60),
                min_size=len(counts),
                max_size=len(counts),
            )
        )
        return shape, list(zip(starts, counts))
    first = draw(st.integers(min_value=1, max_value=60))
    starts = [first]
    for count in counts[:-1]:
        starts.append(starts[-1] + count)
    if shape == "near-miss":
        at = draw(st.integers(min_value=1, max_value=len(starts) - 1))
        starts[at] += draw(st.sampled_from([-1, 1]))
    return shape, list(zip(starts, counts))


class TestExpandedIndices:
    def test_docstring_example(self):
        out = expanded_indices(np.array([5, 0]), np.array([2, 3]))
        assert list(out) == [5, 6, 0, 1, 2]

    def test_zero_counts(self):
        out = expanded_indices(np.array([5, 3]), np.array([0, 0]))
        assert out.size == 0

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=50),
                st.integers(min_value=0, max_value=10),
            ),
            min_size=0,
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_python_loops(self, pairs):
        idx = np.array([p[0] for p in pairs], dtype=np.int64)
        cnt = np.array([p[1] for p in pairs], dtype=np.int64)
        expected = [i + k for i, c in pairs for k in range(c)]
        assert list(expanded_indices(idx, cnt)) == expected

    @given(segments())
    @settings(max_examples=150, deadline=None)
    def test_back_to_back_and_ragged_match_python_loops(self, drawn):
        shape, pairs = drawn
        idx = np.array([p[0] for p in pairs], dtype=np.int64)
        cnt = np.array([p[1] for p in pairs], dtype=np.int64)
        expected = [i + k for i, c in pairs for k in range(c)]
        out = expanded_indices(idx, cnt)
        assert out.dtype == np.int64
        assert list(out) == expected
        chained = all(b[0] == a[0] + a[1] for a, b in zip(pairs, pairs[1:]))
        assert (back_to_back_start(idx, cnt) is not None) == (bool(pairs) and chained)
        if shape == "back-to-back":
            assert back_to_back_start(idx, cnt) == pairs[0][0]
        if shape == "near-miss":
            assert back_to_back_start(idx, cnt) is None
        run, start = expansion_run(idx, cnt)
        assert run.dtype == np.int64 and list(run) == expected
        assert start == back_to_back_start(idx, cnt)

    def test_back_to_back_is_one_run(self):
        out = expanded_indices(np.array([3, 5, 5, 9]), np.array([2, 0, 4, 1]))
        assert list(out) == list(range(3, 10))
        assert back_to_back_start(np.array([3, 5, 5, 9]), np.array([2, 0, 4, 1])) == 3

    def test_length_mismatch_rejected(self):
        with pytest.raises(OperationError, match="indexes length 3 != count length 2"):
            expanded_indices(np.array([5, 0, 9]), np.array([2, 3]))

    def test_shorter_indexes_rejected(self):
        with pytest.raises(OperationError, match="indexes length 1 != count length 2"):
            expanded_indices(np.array([5]), np.array([2, 3]))

    def test_negative_count_rejected(self):
        with pytest.raises(OperationError, match="non-negative"):
            expanded_indices(np.array([5, 0]), np.array([2, -1]))


class TestCompactionProperties:
    @given(
        st.lists(st.integers(min_value=-100, max_value=100), min_size=0, max_size=200),
        st.integers(min_value=-100, max_value=100),
    )
    @settings(max_examples=60, deadline=None)
    def test_compaction_equals_boolean_indexing(self, raw, ref):
        data = np.asarray(raw, dtype=np.int64)
        mask = bitmask_constructor(data, "gt", ref)
        out = data_compaction(data, mask)
        assert list(out) == [x for x in raw if x > ref]

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_replication_length_is_count_sum(self, counts):
        cnt = np.asarray(counts, dtype=np.int64)
        data = np.arange(cnt.size)
        assert replication_compaction(data, cnt).size == cnt.sum()


def _assert_stable_order(keys):
    """``stable_order`` is the stable argsort along the last axis, with
    the keys it sorted."""
    keys = np.asarray(keys)
    order, sorted_keys = stable_order(keys)
    want = np.argsort(keys, axis=-1, kind="stable")
    assert order.dtype == want.dtype
    assert np.array_equal(order, want)
    assert sorted_keys.dtype == keys.dtype
    assert np.array_equal(sorted_keys, np.take_along_axis(keys, want, axis=-1))


class TestStableOrder:
    """The packed sort against its spec, ``np.argsort(kind="stable")``."""

    def test_empty(self):
        _assert_stable_order(np.empty(0, dtype=np.int64))

    def test_one_element(self):
        _assert_stable_order(np.array([7], dtype=np.int64))

    @pytest.mark.parametrize("n", [2, 3, 5, 100, 1000])
    def test_all_keys_equal_keep_stream_order(self, n):
        keys = np.full(n, 9, dtype=np.int64)
        _assert_stable_order(keys)
        assert stable_order(keys)[0].tolist() == list(range(n))

    def test_negative_keys(self):
        _assert_stable_order(np.array([3, -1, 3, -7, 0, -1], dtype=np.int64))

    @pytest.mark.parametrize("n", [1, 2, 3, 31, 32, 33, 1023, 1024, 1025])
    def test_keys_at_and_just_past_the_packing_limit(self, n):
        # ``key << n.bit_length() | position`` must stay below 2**63.
        limit = (1 << (63 - n.bit_length())) - 1
        rng = np.random.default_rng(n)
        for top in (limit, limit + 1, np.iinfo(np.int64).max):
            keys = rng.integers(0, 3, size=n).astype(np.int64) + (top - 2)
            _assert_stable_order(keys)

    @pytest.mark.parametrize("exponent", range(0, 13))
    def test_lengths_at_powers_of_two(self, exponent):
        rng = np.random.default_rng(exponent)
        for n in (2**exponent - 1, 2**exponent, 2**exponent + 1):
            _assert_stable_order(rng.integers(0, 1 + n // 3, size=n))

    def test_rows_sort_along_the_last_axis(self):
        rng = np.random.default_rng(3)
        _assert_stable_order(rng.integers(0, 5, size=(7, 32)))
        _assert_stable_order(np.empty((0, 32), dtype=np.int64))

    @pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.uint64, np.float64, np.bool_])
    def test_other_dtypes(self, dtype):
        rng = np.random.default_rng(4)
        _assert_stable_order(rng.integers(0, 4, size=50).astype(dtype))

    @given(
        st.lists(st.integers(min_value=-50, max_value=2**40), min_size=0, max_size=300)
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_stable_argsort(self, raw):
        _assert_stable_order(np.asarray(raw, dtype=np.int64))
