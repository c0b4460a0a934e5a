"""Brute-force pins of the memory layer's stream kernels.

``coalesce_warp``, ``coalesce_stream``, ``profile_lines`` and
``row_hit_fraction`` are vectorized, and they skip work on streams that
arrive already in order.  Each is pinned here against a plain-Python
loop that states its meaning, over ordered, reversed, constant and
random streams.  The whole ``CoalesceResult`` is compared, ``line_ids``
values, order and dtype included: their order feeds the DRAM row
locality of every phase.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import coalesce_stream, coalesce_warp, profile_lines, row_hit_fraction

SHAPES = ("non-decreasing", "non-increasing", "constant", "random")


def _shaped(raw, shape):
    if shape == "non-decreasing":
        return sorted(raw)
    if shape == "non-increasing":
        return sorted(raw, reverse=True)
    if shape == "constant":
        return [raw[0]] * len(raw)
    return list(raw)


@st.composite
def streams(draw, max_size=300, max_value=1 << 40):
    """Non-negative values in one of the four shapes."""
    raw = draw(
        st.lists(st.integers(min_value=0, max_value=max_value), min_size=1, max_size=max_size)
    )
    return _shaped(raw, draw(st.sampled_from(SHAPES)))


def warp_reference(addresses, warp_size, sector_bytes, active):
    """Per warp, one transaction per distinct sector, sectors ascending."""
    lanes = [a for a, on in zip(addresses, active) if on]
    line_ids = []
    for start in range(0, len(lanes), warp_size):
        warp = lanes[start : start + warp_size]
        line_ids.extend(sorted({a // sector_bytes for a in warp}))
    return len(lanes), line_ids


def stream_reference(addresses, merge_window, sector_bytes):
    """One element at a time: a pending transaction absorbs the next
    request to its sector until it holds ``merge_window`` of them."""
    line_ids = []
    pending, held = None, 0
    for address in addresses:
        line = address // sector_bytes
        if line == pending and held < merge_window:
            held += 1
        else:
            line_ids.append(line)
            pending, held = line, 1
    return line_ids


def _assert_result(result, accesses, line_ids, sector_bytes):
    assert result.accesses == accesses
    assert result.transactions == len(line_ids)
    assert result.line_ids.dtype == np.int64
    assert result.line_ids.tolist() == line_ids
    assert result.sector_bytes == sector_bytes


class TestWarpCoalescerPins:
    @given(
        streams(),
        st.sampled_from([1, 4, 32]),
        st.sampled_from([1, 32, 128]),
        st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1)),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_per_warp_sorted_set(self, addresses, warp_size, sector_bytes, mask_seed):
        if mask_seed is None:
            mask = None
            active = [True] * len(addresses)
        else:
            mask = np.random.default_rng(mask_seed).random(len(addresses)) < 0.7
            active = mask.tolist()
        result = coalesce_warp(
            np.asarray(addresses, dtype=np.int64),
            warp_size=warp_size,
            sector_bytes=sector_bytes,
            active_mask=mask,
        )
        accesses, line_ids = warp_reference(addresses, warp_size, sector_bytes, active)
        if accesses == 0:
            assert result.transactions == 0 and result.line_ids.size == 0
        else:
            _assert_result(result, accesses, line_ids, sector_bytes)

    def test_partial_last_warp_of_every_shape(self):
        rng = np.random.default_rng(11)
        for n in (1, 31, 33, 63, 65, 100):
            raw = rng.integers(0, 4096, size=n).tolist()
            for shape in SHAPES:
                addresses = _shaped(raw, shape)
                result = coalesce_warp(np.asarray(addresses, dtype=np.int64))
                accesses, line_ids = warp_reference(addresses, 32, 32, [True] * n)
                _assert_result(result, accesses, line_ids, 32)


class TestStreamCoalescerPins:
    @given(streams(max_value=1 << 12), st.integers(min_value=1, max_value=8))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_element_window_loop(self, addresses, merge_window):
        result = coalesce_stream(
            np.asarray(addresses, dtype=np.int64), merge_window=merge_window
        )
        _assert_result(
            result, len(addresses), stream_reference(addresses, merge_window, 32), 32
        )

    def test_long_run_splits_into_ceil_run_over_window(self):
        addresses = np.array([0] * 9 + [64] * 4 + [0], dtype=np.int64)
        result = coalesce_stream(addresses, merge_window=4)
        assert result.line_ids.tolist() == [0, 0, 0, 2, 0]


class TestProfilePins:
    @given(streams(max_value=1 << 10))
    @settings(max_examples=300, deadline=None)
    def test_unique_lines_is_the_distinct_count(self, ids):
        profile = profile_lines(np.asarray(ids, dtype=np.int64))
        assert profile.accesses == len(ids)
        assert profile.unique_lines == len(set(ids))


class TestRowHitPins:
    @given(streams(max_value=1 << 14), st.sampled_from([512, 2048, 4096]))
    @settings(max_examples=300, deadline=None)
    def test_equals_mean_of_equal_neighbours_bit_for_bit(self, ids, row_bytes):
        line_ids = np.asarray(ids, dtype=np.int64)
        got = row_hit_fraction(line_ids, row_bytes=row_bytes)
        assert type(got) is float
        if line_ids.size < 2:
            assert got == 0.5
            return
        rows = line_ids // (row_bytes // 32)
        expected = float(np.mean(rows[1:] == rows[:-1]))
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()
