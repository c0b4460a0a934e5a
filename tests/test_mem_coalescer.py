"""Tests for the warp and stream coalescing models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.mem import (
    SECTOR_BYTES,
    coalesce_stream,
    coalesce_warp,
    gather_addresses,
    sequential_addresses,
)


class TestWarpCoalescer:
    def test_fully_coalesced_warp_is_four_sectors(self):
        # 32 threads x 4-byte elements = 128 bytes = 4 sectors of 32 B.
        addrs = sequential_addresses(32, elem_bytes=4)
        result = coalesce_warp(addrs)
        assert result.transactions == 4
        assert result.coalescing_factor == 8.0

    def test_fully_divergent_warp(self):
        # Each thread hits its own sector: no merging possible.
        addrs = np.arange(32, dtype=np.int64) * SECTOR_BYTES
        result = coalesce_warp(addrs)
        assert result.transactions == 32
        assert result.coalescing_factor == 1.0

    def test_broadcast_warp_is_one_transaction(self):
        addrs = np.zeros(32, dtype=np.int64)
        result = coalesce_warp(addrs)
        assert result.transactions == 1

    def test_partial_last_warp(self):
        addrs = sequential_addresses(40, elem_bytes=4)  # 1 full + 1 partial warp
        result = coalesce_warp(addrs)
        assert result.accesses == 40
        assert result.transactions == 5  # 4 + 1

    def test_empty_stream(self):
        result = coalesce_warp(np.empty(0, dtype=np.int64))
        assert result.transactions == 0
        assert result.coalescing_factor == 0.0
        assert result.bytes_transferred == 0

    def test_active_mask_drops_lanes(self):
        addrs = np.arange(32, dtype=np.int64) * SECTOR_BYTES
        mask = np.zeros(32, dtype=bool)
        mask[:4] = True
        result = coalesce_warp(addrs, active_mask=mask)
        assert result.accesses == 4
        assert result.transactions == 4

    def test_mask_shape_checked(self):
        with pytest.raises(SimulationError):
            coalesce_warp(np.zeros(8, dtype=np.int64), active_mask=np.ones(4, dtype=bool))

    def test_line_ids_have_one_entry_per_transaction(self):
        addrs = sequential_addresses(64, elem_bytes=4)
        result = coalesce_warp(addrs)
        assert result.line_ids.size == result.transactions

    def test_bad_sector_bytes_rejected(self):
        for sector_bytes in (48, 0):
            with pytest.raises(SimulationError, match="power of two"):
                coalesce_warp(np.zeros(4, dtype=np.int64), sector_bytes=sector_bytes)

    def test_warps_do_not_merge_across_boundary(self):
        # Same sector touched by two different warps -> two transactions.
        addrs = np.zeros(64, dtype=np.int64)
        result = coalesce_warp(addrs)
        assert result.transactions == 2

    @given(
        st.lists(st.integers(min_value=0, max_value=2**20), min_size=1, max_size=256)
    )
    @settings(max_examples=50, deadline=None)
    def test_transactions_bounded(self, raw):
        addrs = np.asarray(raw, dtype=np.int64) * 4
        result = coalesce_warp(addrs)
        # Never more transactions than accesses; never fewer than ceil(n/32)
        # warps' worth of minimum 1 transaction each.
        assert result.transactions <= result.accesses
        assert result.transactions >= -(-len(raw) // 32)

    @given(st.integers(min_value=1, max_value=1024))
    @settings(max_examples=30, deadline=None)
    def test_sequential_walk_is_optimal(self, count):
        addrs = sequential_addresses(count, elem_bytes=4)
        result = coalesce_warp(addrs)
        sectors_per_warp = 32 * 4 // SECTOR_BYTES
        full, rem = divmod(count, 32)
        expected = full * sectors_per_warp + (-(-rem * 4 // SECTOR_BYTES) if rem else 0)
        assert result.transactions == expected


class TestStreamCoalescer:
    def test_sequential_stream_merges_within_window(self):
        # 8 consecutive 4-byte reads span one 32-B sector; window of 4 can
        # only merge runs of 4, so 8 accesses -> 2 transactions.
        addrs = sequential_addresses(8, elem_bytes=4)
        result = coalesce_stream(addrs, merge_window=4)
        assert result.transactions == 2

    def test_window_one_never_merges(self):
        addrs = np.zeros(16, dtype=np.int64)
        result = coalesce_stream(addrs, merge_window=1)
        assert result.transactions == 16

    def test_large_window_merges_repeats(self):
        addrs = np.zeros(16, dtype=np.int64)
        result = coalesce_stream(addrs, merge_window=32)
        assert result.transactions == 1

    def test_random_stream_rarely_merges(self):
        rng = np.random.default_rng(0)
        addrs = rng.integers(0, 1 << 30, size=4096) * SECTOR_BYTES
        result = coalesce_stream(addrs, merge_window=4)
        assert result.transactions > 4000

    def test_empty_stream(self):
        result = coalesce_stream(np.empty(0, dtype=np.int64))
        assert result.transactions == 0

    def test_bad_window_rejected(self):
        with pytest.raises(SimulationError):
            coalesce_stream(np.zeros(4, dtype=np.int64), merge_window=0)

    def test_bad_sector_bytes_rejected(self):
        # The same validation as the warp coalescer: 48-byte sectors once
        # ran on 32-byte ids (3 transactions where 48-byte sectors give
        # 2), and 0 put every request on line 0.
        for sector_bytes in (48, 0):
            with pytest.raises(SimulationError, match="power of two"):
                coalesce_stream(
                    np.arange(24, dtype=np.int64) * 4,
                    sector_bytes=sector_bytes,
                    merge_window=100,
                )

    @given(
        st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=200),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_wider_window_never_hurts(self, raw, window):
        addrs = np.asarray(raw, dtype=np.int64)
        narrow = coalesce_stream(addrs, merge_window=window)
        wide = coalesce_stream(addrs, merge_window=window + 4)
        assert wide.transactions <= narrow.transactions


class TestAddressHelpers:
    def test_gather_addresses(self):
        addrs = gather_addresses(np.array([0, 10, 5]), base=100, elem_bytes=4)
        assert list(addrs) == [100, 140, 120]

    def test_sequential_rejects_negative(self):
        with pytest.raises(SimulationError):
            sequential_addresses(-1)
