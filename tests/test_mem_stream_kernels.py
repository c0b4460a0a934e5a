"""Brute-force pins of the memory layer's stream kernels.

``coalesce_warp``, ``coalesce_stream``, ``profile_lines`` and
``row_hit_fraction`` are vectorized, and they skip work on streams that
arrive already in order.  Each is pinned here against a plain-Python
loop that states its meaning, over ordered, reversed, constant and
random streams.  The whole ``CoalesceResult`` is compared, ``line_ids``
values, order and dtype included: their order feeds the DRAM row
locality of every phase.

An ``AddressRange`` is priced in closed form by both coalescers and by
``MemoryHierarchy.process``.  Those closed forms are pinned against the
explicit kernels run on the materialised addresses, ``np.asarray(range)``.
``MemoryStats.fold`` is pinned bit for bit against the chained
``merged`` calls it replaces.

A stream of at most ``SMALL_STREAM`` addresses is coalesced with plain
Python ints, and the ids of at most ``SMALL_STREAM`` transactions are
profiled and row-counted as a list of ints.  That path is pinned against
the same loops and against the numpy kernels, which every stream takes
when the constant is patched to 0.
"""

import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.mem.coalescer
from repro.algorithms.runner import execute_request
from repro.errors import SimulationError
from repro.mem import (
    GDDR5,
    LPDDR4,
    AddressRange,
    AddressSpace,
    MemoryHierarchy,
    MemoryStats,
    SectorWalk,
    coalesce_stream,
    coalesce_warp,
    profile_lines,
    row_hit_fraction,
)
from repro.mem.coalescer import SMALL_STREAM
from repro.request import RunRequest

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


# -- the closed forms of an AddressRange ------------------------------------


@st.composite
def ranges(draw, sector_bytes):
    """A walk whose base is sector-aligned or not, whose count is 0, 1,
    a partial or whole number of warps, and whose stride runs from 1 to
    past a sector."""
    base = draw(st.integers(min_value=0, max_value=64)) * sector_bytes
    if draw(st.booleans()):
        base += draw(st.integers(min_value=1, max_value=sector_bytes - 1))
    count = draw(
        st.one_of(
            st.sampled_from([0, 1, 31, 32, 33, 64, 96, 97]),
            st.integers(min_value=0, max_value=400),
        )
    )
    stride = draw(
        st.one_of(
            st.integers(min_value=1, max_value=sector_bytes),
            st.sampled_from([1, 4, 8, sector_bytes]),
            st.integers(min_value=sector_bytes + 1, max_value=3 * sector_bytes),
        )
    )
    return AddressRange(base, count, stride)


SECTORS = st.sampled_from([32, 64, 128])


def _same_result(got, want):
    assert got.accesses == want.accesses
    assert got.transactions == want.transactions
    assert got.sector_bytes == want.sector_bytes
    assert got.line_ids.dtype == want.line_ids.dtype == np.int64
    assert got.line_ids.tolist() == want.line_ids.tolist()


def _bits(value):
    """A float's bytes, so that equal-comparing floats must match bit for bit."""
    return np.float64(value).tobytes() if isinstance(value, float) else value


def _assert_stats_bits(got, want):
    """Two ``MemoryStats`` field by field: the same type, the same bits."""
    assert type(got) is type(want) is MemoryStats
    for name in MemoryStats._fields:
        a, b = getattr(got, name), getattr(want, name)
        assert type(a) is type(b) and _bits(a) == _bits(b), name


class TestAddressRange:
    def test_materialises_as_int64_addresses(self):
        walk = AddressRange(100, 5, 8)
        assert np.asarray(walk).dtype == np.int64
        assert np.asarray(walk).tolist() == [100, 108, 116, 124, 132]

    def test_fields_are_python_ints(self):
        walk = AddressRange(np.int64(96), np.int64(40), np.int32(4))
        assert {type(walk.base), type(walk.count), type(walk.stride)} == {int}
        result = coalesce_warp(walk)
        assert type(result.accesses) is int and type(result.transactions) is int

    def test_rejects_negative_count_or_stride(self):
        with pytest.raises(SimulationError):
            AddressRange(0, -1, 4)
        with pytest.raises(SimulationError):
            AddressRange(0, 4, -4)

    def test_span_is_the_addresses_it_replaces(self):
        space = AddressSpace()
        offsets = space.alloc("offsets", 101, 4)
        n = 100
        nodes = np.arange(n, dtype=np.int64)
        assert np.asarray(offsets.span()).tolist() == offsets.addresses().tolist()
        assert np.asarray(offsets.span(0, n)).tolist() == offsets.addresses(nodes).tolist()
        prefix = offsets.span(1, n)
        assert prefix.base % 32 == 4  # starts 4 bytes into a sector
        assert np.asarray(prefix).tolist() == offsets.addresses(nodes + 1).tolist()
        with pytest.raises(SimulationError):
            offsets.span(1, 101)


class TestRangeCoalescerPins:
    @given(st.data(), SECTORS, st.sampled_from([1, 4, 32]))
    @settings(max_examples=400, deadline=None)
    def test_warp_closed_form_matches_explicit_kernel(self, data, sector_bytes, warp_size):
        walk = data.draw(ranges(sector_bytes))
        got = coalesce_warp(walk, warp_size=warp_size, sector_bytes=sector_bytes)
        want = coalesce_warp(np.asarray(walk), warp_size=warp_size, sector_bytes=sector_bytes)
        _same_result(got, want)

    @given(st.data(), SECTORS, st.integers(min_value=1, max_value=8))
    @settings(max_examples=400, deadline=None)
    def test_stream_closed_form_matches_explicit_kernel(self, data, sector_bytes, window):
        walk = data.draw(ranges(sector_bytes))
        got = coalesce_stream(walk, merge_window=window, sector_bytes=sector_bytes)
        want = coalesce_stream(np.asarray(walk), merge_window=window, sector_bytes=sector_bytes)
        _same_result(got, want)

    def test_in_order_walks_take_the_closed_form(self):
        walk = AddressRange(4, 1000, 4)
        assert isinstance(coalesce_warp(walk).sectors, SectorWalk)
        assert isinstance(coalesce_stream(walk, merge_window=8).sectors, SectorWalk)
        # Wider strides and masked lanes take the explicit kernels.
        assert coalesce_warp(AddressRange(0, 10, 64)).walk is None
        mask = np.ones(1000, dtype=bool)
        assert coalesce_warp(walk, active_mask=mask).walk is None

    def test_warp_spans_of_part_sectors_take_the_explicit_kernel(self):
        # 4 lanes x 4 bytes, 32 lanes x 1 byte over 64-byte sectors:
        # warps start at different offsets within their sectors.
        for walk, warp_size, sector_bytes in (
            (AddressRange(4, 100, 4), 4, 32),
            (AddressRange(0, 100, 1), 32, 64),
            (AddressRange(6, 300, 3), 32, 128),
        ):
            got = coalesce_warp(walk, warp_size=warp_size, sector_bytes=sector_bytes)
            assert got.walk is None
            want = coalesce_warp(np.asarray(walk), warp_size=warp_size, sector_bytes=sector_bytes)
            _same_result(got, want)

    @given(st.data(), SECTORS, st.sampled_from([1, 2, 4, 8, 32, 33]))
    @settings(max_examples=300, deadline=None)
    def test_warp_closed_form_exactly_when_a_warp_spans_whole_sectors(
        self, data, sector_bytes, warp_size
    ):
        walk = data.draw(ranges(sector_bytes))
        got = coalesce_warp(walk, warp_size=warp_size, sector_bytes=sector_bytes)
        whole = 0 < walk.stride <= sector_bytes and warp_size * walk.stride % sector_bytes == 0
        assert (got.walk is not None) == whole

    @pytest.mark.parametrize("offset", [3, 4, 5])
    def test_warp_starts_repeat_from_an_offset_of_one_stride(self, offset):
        # 4-byte lanes: a warp starting 4 or more bytes into a sector
        # shares that sector with the previous warp's last lane.
        walk = AddressRange(64 + offset, 200, 4)
        got = coalesce_warp(walk)
        assert got.walk.repeats.size == (6 if offset >= 4 else 0)
        _same_result(got, coalesce_warp(np.asarray(walk)))

    def test_masked_range_matches_explicit_kernel(self):
        walk = AddressRange(12, 300, 4)
        mask = np.random.default_rng(5).random(300) < 0.6
        got = coalesce_warp(walk, active_mask=mask)
        _same_result(got, coalesce_warp(np.asarray(walk), active_mask=mask))


class TestRangeHierarchyPins:
    @given(
        st.data(),
        SECTORS,
        st.sampled_from(["warp", "stream"]),
        st.sampled_from([GDDR5, LPDDR4]),
        st.sampled_from([256, 2048, 4096]),
        st.sampled_from([32, 128]),
        st.sampled_from([512, 16 * 1024, 2 << 20]),
        st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_process_matches_explicit_ids_bit_for_bit(
        self, data, sector_bytes, coalescer, dram, row_bytes, line_bytes, l2_bytes, bypass
    ):
        walk = data.draw(ranges(sector_bytes))
        if coalescer == "warp":
            warp_size = data.draw(st.sampled_from([1, 4, 32]))

            def run(addresses):
                return coalesce_warp(addresses, warp_size=warp_size, sector_bytes=sector_bytes)
        else:
            window = data.draw(st.integers(min_value=1, max_value=8))

            def run(addresses):
                return coalesce_stream(addresses, merge_window=window, sector_bytes=sector_bytes)
        hierarchy = MemoryHierarchy(
            l2_capacity_bytes=l2_bytes,
            dram=dataclasses.replace(dram, row_bytes=row_bytes),
            l2_line_bytes=line_bytes,
        )
        got_result, want_result = run(walk), run(np.asarray(walk))
        if line_bytes < sector_bytes and want_result.transactions:
            with pytest.raises(SimulationError) as want_error:
                hierarchy.process(want_result, l2_bypass=bypass)
            with pytest.raises(SimulationError) as got_error:
                hierarchy.process(got_result, l2_bypass=bypass)
            assert str(got_error.value) == str(want_error.value)
            return
        got = hierarchy.process(got_result, l2_bypass=bypass)
        want = hierarchy.process(want_result, l2_bypass=bypass)
        _assert_stats_bits(got, want)
        assert _bits(hierarchy.dram_time_s(got)) == _bits(hierarchy.dram_time_s(want))
        assert _bits(hierarchy.dram_dynamic_energy_j(got)) == _bits(
            hierarchy.dram_dynamic_energy_j(want)
        )

    @given(st.data(), SECTORS, st.sampled_from([256, 2048, 4096]))
    @settings(max_examples=200, deadline=None)
    def test_row_hit_fraction_of_a_walk_is_its_ids(self, data, sector_bytes, row_bytes):
        walk = data.draw(ranges(sector_bytes))
        result = coalesce_warp(walk, sector_bytes=sector_bytes)
        got = row_hit_fraction(result.sectors, row_bytes=row_bytes, sector_bytes=sector_bytes)
        want = row_hit_fraction(result.line_ids, row_bytes=row_bytes, sector_bytes=sector_bytes)
        assert type(got) is float and _bits(got) == _bits(want)


# -- short streams: the plain-int path ---------------------------------------


@contextlib.contextmanager
def numpy_kernels():
    """Every non-empty explicit stream through the numpy kernels: the
    coalescer alone decides, and hands on no list but an empty one."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.mem.coalescer, "SMALL_STREAM", 0)
        yield


SMALL_LENGTHS = st.one_of(
    st.sampled_from([0, 1, SMALL_STREAM - 1, SMALL_STREAM, SMALL_STREAM + 1]),
    st.integers(min_value=0, max_value=SMALL_STREAM),
    st.integers(min_value=SMALL_STREAM + 1, max_value=2 * SMALL_STREAM + 40),
)


@st.composite
def short_streams(draw):
    """A stream around ``SMALL_STREAM`` long: sorted, reversed, constant,
    random, or drawn from a handful of addresses (duplicate-heavy)."""
    n = draw(SMALL_LENGTHS)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    shape = draw(st.sampled_from(SHAPES + ("duplicate-heavy",)))
    if shape == "duplicate-heavy":
        pool = rng.integers(0, 1 << 16, size=4)
        raw = pool[rng.integers(0, pool.size, size=n)].tolist()
    else:
        raw = rng.integers(0, draw(st.sampled_from([1 << 8, 1 << 14, 1 << 40])), size=n).tolist()
    return raw if n == 0 else _shaped(raw, "random" if shape == "duplicate-heavy" else shape)


def _same_result_and_types(got, want):
    _same_result(got, want)
    assert type(got.accesses) is type(got.transactions) is int
    assert type(want.accesses) is type(want.transactions) is int


def _same_locality(got, want, row_bytes):
    """``profile_lines`` and ``row_hit_fraction`` of two results' ids:
    counts equal, row-hit fractions Python floats equal bit for bit."""
    ids = want.line_ids.tolist()
    sector_bytes = want.sector_bytes
    profiles = [profile_lines(got.sectors), profile_lines(got.line_ids)]
    fractions = [
        row_hit_fraction(got.sectors, row_bytes=row_bytes, sector_bytes=sector_bytes),
        row_hit_fraction(got.line_ids, row_bytes=row_bytes, sector_bytes=sector_bytes),
    ]
    with numpy_kernels():
        profiles.append(profile_lines(want.line_ids))
        fractions.append(
            row_hit_fraction(want.line_ids, row_bytes=row_bytes, sector_bytes=sector_bytes)
        )
    for profile in profiles:
        assert profile == (len(ids), len(set(ids)))
        assert type(profile.accesses) is type(profile.unique_lines) is int
    rows = np.asarray(ids, dtype=np.int64) // (row_bytes // sector_bytes)
    spec = 0.5 if len(ids) < 2 else float(np.mean(rows[1:] == rows[:-1]))
    for fraction in fractions:
        assert type(fraction) is float and _bits(fraction) == _bits(spec)


def _same_prices(got, want, dram, row_bytes, line_bytes, bypass):
    """``process`` and ``dram_time_s`` of two results: every field and
    the drain time, by type and bits."""
    hierarchy = MemoryHierarchy(
        l2_capacity_bytes=16 * 1024,
        dram=dataclasses.replace(dram, row_bytes=row_bytes),
        l2_line_bytes=line_bytes,
    )
    got_stats = hierarchy.process(got, l2_bypass=bypass)
    got_s = hierarchy.dram_time_s(got_stats)
    with numpy_kernels():
        want_stats = hierarchy.process(want, l2_bypass=bypass)
        want_s = hierarchy.dram_time_s(want_stats)
    _assert_stats_bits(got_stats, want_stats)
    assert type(got_s) is type(want_s) is float and _bits(got_s) == _bits(want_s)


class TestSmallStreamPins:
    """The plain-int path against the spec loops and the numpy kernels,
    on both sides of ``SMALL_STREAM``."""

    @given(
        short_streams(),
        st.sampled_from([1, 4, 32]),
        SECTORS,
        st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1)),
        st.sampled_from([GDDR5, LPDDR4]),
        st.sampled_from([512, 2048, 4096]),
        st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_warp_path_matches_spec_and_numpy(
        self, addresses, warp_size, sector_bytes, mask_seed, dram, row_bytes, bypass
    ):
        array = np.asarray(addresses, dtype=np.int64)
        if mask_seed is None:
            mask, active = None, [True] * len(addresses)
        else:
            mask = np.random.default_rng(mask_seed).random(len(addresses)) < 0.6
            active = mask.tolist()
        run = dict(warp_size=warp_size, sector_bytes=sector_bytes, active_mask=mask)
        got = coalesce_warp(array, **run)
        with numpy_kernels():
            want = coalesce_warp(array, **run)
        assert isinstance(got.sectors, list) == (got.transactions <= SMALL_STREAM)
        assert isinstance(want.sectors, list) == (want.transactions == 0)
        accesses, line_ids = warp_reference(addresses, warp_size, sector_bytes, active)
        assert got.accesses == accesses and got.line_ids.tolist() == line_ids
        _same_result_and_types(got, want)
        _same_locality(got, want, row_bytes)
        _same_prices(got, want, dram, row_bytes, sector_bytes, bypass)

    @given(
        short_streams(),
        st.integers(min_value=1, max_value=8),
        SECTORS,
        st.sampled_from([GDDR5, LPDDR4]),
        st.sampled_from([512, 2048, 4096]),
        st.sampled_from([1, 4]),
        st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_stream_path_matches_spec_and_numpy(
        self, addresses, window, sector_bytes, dram, row_bytes, lines_per_l2_line, bypass
    ):
        array = np.asarray(addresses, dtype=np.int64)
        got = coalesce_stream(array, merge_window=window, sector_bytes=sector_bytes)
        with numpy_kernels():
            want = coalesce_stream(array, merge_window=window, sector_bytes=sector_bytes)
        assert isinstance(got.sectors, list) == (got.transactions <= SMALL_STREAM)
        assert isinstance(want.sectors, list) == (want.transactions == 0)
        assert got.line_ids.tolist() == stream_reference(addresses, window, sector_bytes)
        _same_result_and_types(got, want)
        _same_locality(got, want, row_bytes)
        _same_prices(
            got, want, dram, row_bytes, lines_per_l2_line * sector_bytes, bypass
        )

    def test_empty_and_masked_out_streams(self):
        for addresses, mask in (
            (np.empty(0, dtype=np.int64), None),
            (np.arange(5, dtype=np.int64) * 32, np.zeros(5, dtype=bool)),
        ):
            got = coalesce_warp(addresses, active_mask=mask)
            assert (got.accesses, got.transactions, got.sectors) == (0, 0, [])
            assert got.line_ids.dtype == np.int64 and got.line_ids.size == 0
            assert profile_lines(got.sectors) == (0, 0)
            assert row_hit_fraction(got.sectors) == 0.5
        assert coalesce_stream(np.empty(0, dtype=np.int64)).sectors == []


class TestMemoryStatsFold:
    """``MemoryStats.fold`` against the chained ``merged`` it replaces."""

    @staticmethod
    def _chained(parts):
        total = MemoryStats()
        for part in parts:
            total = total.merged(part)
        return total

    @given(
        st.lists(
            st.builds(
                MemoryStats,
                accesses=st.integers(0, 10**9),
                transactions=st.integers(0, 10**7),
                l2_hits=st.integers(0, 10**7),
                dram_accesses=st.integers(0, 10**7),
                dram_bytes=st.one_of(st.just(0), st.integers(0, 10**9)),
                row_hit_fraction=st.one_of(
                    st.sampled_from([0.0, 0.5, 1.0]),
                    st.floats(0.0, 1.0, allow_nan=False),
                ),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=400, deadline=None)
    def test_equals_chained_merged_bit_for_bit(self, parts):
        _assert_stats_bits(MemoryStats.fold(parts), self._chained(parts))
        _assert_stats_bits(MemoryStats.fold(iter(parts)), self._chained(parts))

    def test_empty_parts_reset_and_weigh_as_merged_does(self):
        empty = MemoryStats()
        zero_bytes = MemoryStats(accesses=7, transactions=3, row_hit_fraction=0.9)
        streaming = MemoryStats(10, 5, 1, 4, 128, 0.75)
        random = MemoryStats(10, 9, 0, 9, 288, 0.1)
        for parts in (
            [],
            [empty],
            [zero_bytes],
            [zero_bytes, streaming],
            [streaming, zero_bytes, random],
            [empty, streaming, empty, random, zero_bytes],
        ):
            _assert_stats_bits(MemoryStats.fold(parts), self._chained(parts))


@pytest.mark.parametrize(
    "algorithm,mode",
    [("pagerank", "gpu"), ("pagerank", "scu-basic"), ("bfs", "iru"), ("bfs", "scu-enhanced")],
)
def test_requests_never_materialise_a_range_untraced(monkeypatch, algorithm, mode):
    """Every range a request builds is priced in closed form: none is
    turned into an address array, and no walk's line ids are built."""

    def refuse(*args, **kwargs):
        raise AssertionError("a range was materialised")

    monkeypatch.setattr(AddressRange, "__array__", refuse)
    monkeypatch.setattr(SectorWalk, "line_ids", refuse)
    request = RunRequest.make(algorithm, "human", "TX1", mode, seed=42)
    assert execute_request(request).report.time_s() > 0
