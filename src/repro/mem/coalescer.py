"""Memory-access coalescing models.

Two coalescers live here:

* :func:`coalesce_warp` — the GPU's per-warp coalescer: the 32 threads of
  a warp issue one address each; accesses falling in the same sector
  merge into a single memory transaction.  Intra-warp *memory
  divergence* is exactly the ratio ``transactions / warps`` and is the
  quantity the paper's grouping operation improves (Figure 12).

* :func:`coalesce_stream` — the SCU's sequential coalescing unit
  (Section 3.2.3): a sliding merge window over an in-order request
  stream (Table 1: 32 in-flight requests, 4-element merge window).

Both are exact (they look at real addresses) and linear in the flat
stream: a transaction starts wherever the sector changes, a warp
starts or a merge window fills.  Only a warp stream that is not
already non-decreasing is sorted, warp by warp.  The plain loops in
``tests/test_mem_stream_kernels.py`` are their written spec.

A stream of at most :data:`SMALL_STREAM` addresses (most gathers of a
BFS/SSSP iteration) costs more in numpy calls than in elements, so it
is coalesced with plain Python ints instead.  The coalescer is the one
place that decides: whenever a stream issues at most
:data:`SMALL_STREAM` transactions, from either path, its sector ids are
handed on as a list of ints, which
:func:`~repro.mem.locality.profile_lines` and
:func:`~repro.mem.hierarchy.row_hit_fraction` count with Python ints
too; an array takes their numpy kernels.  Both paths give the same
results, types included; ``line_ids`` is an ``int64`` array either way.
The result types are named tuples: every priced stream builds one or
two.

An in-order walk passed as an
:class:`~repro.mem.address_space.AddressRange` with
``0 < stride <= sector_bytes`` issues every sector from its first
address's to its last's.  Both coalescers price it in closed form, as a
:class:`SectorWalk`.  The warp coalescer does so when a warp spans a
whole number of sectors (``warp_size * stride``; the simulator's walks,
32 lanes over 4- or 8-byte elements, all do): every warp then starts at
the same offset within its sector, so either every warp start repeats
its predecessor's sector (offset >= stride) or none does, and the
repeats form one arithmetic progression.  The stream coalescer looks
only at per-sector runs (and not even those when no sector holds more
than a window).  A walk's ``line_ids`` are built only when read.
Gathers, hash probes, masked streams, wider strides and walks whose warp
span is not whole sectors take the explicit kernels, which stay the spec
the closed forms are pinned to.
"""

from __future__ import annotations

from itertools import compress
from typing import NamedTuple

import numpy as np

from ..errors import SimulationError
from .address_space import AddressRange

#: Default transaction size. Maxwell L2 moves 32-byte sectors.
SECTOR_BYTES = 32
#: L1/texture cache line size used for grouping decisions.
LINE_BYTES = 128
#: Threads per warp on every NVIDIA architecture the paper targets.
WARP_SIZE = 32
#: Explicit address streams of at most this many elements are coalesced
#: with plain Python integers, and sector ids of at most this many
#: transactions are handed on as a list, which the locality and DRAM
#: row models count with Python integers: below it a stream's numpy
#: calls cost more than the loops over its elements (measured crossover
#: in DESIGN.md).  Longer streams take the numpy kernels.  Both paths
#: give the same results, types included.
SMALL_STREAM = 64

#: ``log2`` of every sector size the coalescers accept (powers of two).
_SECTOR_SHIFTS = {1 << shift: shift for shift in range(63)}
#: Pads the last warp of an unordered stream: sorts after every sector.
_PAD = np.iinfo(np.int64).max
#: The ``repeats`` of every walk that has none; shared, so read-only.
_NO_REPEATS = np.empty(0, dtype=np.int64)
_NO_REPEATS.flags.writeable = False


class SectorWalk(NamedTuple):
    """Closed form of the transactions of an in-order sector walk.

    Every sector from ``first`` to ``last`` is issued once, in ascending
    order, and each id in ``repeats`` (non-decreasing) once more: a warp
    start or a filled merge window that does not begin a new sector.
    """

    first: int
    last: int
    repeats: np.ndarray

    @property
    def transactions(self) -> int:
        return self.last - self.first + 1 + self.repeats.size

    def distinct(self, sectors_per_block: int) -> int:
        """Distinct blocks of ``sectors_per_block`` sectors touched."""
        return self.last // sectors_per_block - self.first // sectors_per_block + 1

    def line_ids(self) -> np.ndarray:
        ids = np.arange(self.first, self.last + 1, dtype=np.int64)
        if self.repeats.size == 0:
            return ids
        counts = np.bincount(self.repeats - self.first, minlength=ids.size)
        counts += 1
        return np.repeat(ids, counts)


class CoalesceResult(NamedTuple):
    """Outcome of running an address stream through a coalescer.

    ``line_ids`` are **sector** ids at ``sector_bytes`` granularity (one
    per transaction) — not cache-line ids.  Downstream cache models that
    track a different block size must convert via
    :meth:`cache_line_ids`; feeding sector ids straight into a 128-byte
    line cache silently mis-sizes the working set by 4x.

    ``sectors`` holds those ids as an ``int64`` array; when there are at
    most :data:`SMALL_STREAM` of them as a list of Python ints; and for
    an in-order walk as the :class:`SectorWalk` they are built from.
    ``line_ids`` is an ``int64`` array whichever form they take.
    """

    accesses: int
    transactions: int
    sectors: "np.ndarray | list[int] | SectorWalk"
    sector_bytes: int = SECTOR_BYTES

    @property
    def line_ids(self) -> np.ndarray:
        """One sector id per transaction, in issue order, for cache modeling."""
        sectors = self.sectors
        if isinstance(sectors, SectorWalk):
            return sectors.line_ids()
        if isinstance(sectors, list):
            return np.array(sectors, dtype=np.int64)
        return sectors

    @property
    def walk(self) -> "SectorWalk | None":
        return self.sectors if isinstance(self.sectors, SectorWalk) else None

    @property
    def coalescing_factor(self) -> float:
        """Average accesses merged per transaction (higher is better)."""
        if self.transactions == 0:
            return 0.0
        return self.accesses / self.transactions

    @property
    def bytes_transferred(self) -> int:
        return self.transactions * self.sector_bytes

    def line_ratio(self, line_bytes: int) -> int:
        """Sectors per ``line_bytes`` cache line."""
        if line_bytes == self.sector_bytes:
            return 1
        if line_bytes < self.sector_bytes or line_bytes % self.sector_bytes:
            raise SimulationError(
                f"cache line size {line_bytes} is not a multiple of the "
                f"transaction sector size {self.sector_bytes}"
            )
        return line_bytes // self.sector_bytes

    def cache_line_ids(self, line_bytes: int) -> np.ndarray:
        """Transaction ids at ``line_bytes`` granularity.

        Identity when the granularities already match; otherwise each
        sector id maps into the (coarser) cache line containing it.
        """
        ratio = self.line_ratio(line_bytes)
        if ratio == 1:
            return self.line_ids
        return self.line_ids // ratio


def _sector_shift(sector_bytes: int) -> int:
    """``log2(sector_bytes)``; both coalescers reject any other size."""
    shift = _SECTOR_SHIFTS.get(sector_bytes)
    if shift is None:
        raise SimulationError(f"sector_bytes must be a power of two, got {sector_bytes}")
    return shift


def _is_sector_walk(addresses, sector_bytes: int) -> bool:
    """An in-order walk that visits every sector between its ends."""
    return isinstance(addresses, AddressRange) and 0 < addresses.stride <= sector_bytes


def _walk_ends(walk: AddressRange, shift: int) -> tuple[int, int]:
    """First and last sector of a walk (an empty one ends before it starts)."""
    first = walk.base >> shift
    if walk.count == 0:
        return first, first - 1
    return first, (walk.base + (walk.count - 1) * walk.stride) >> shift


def _result(accesses: int, line_ids: np.ndarray, sector_bytes: int) -> CoalesceResult:
    """A numpy kernel's result: few transactions are handed on as ints."""
    if line_ids.size <= SMALL_STREAM:
        return CoalesceResult(accesses, int(line_ids.size), line_ids.tolist(), sector_bytes)
    return CoalesceResult(accesses, int(line_ids.size), line_ids, sector_bytes)


def _warp_lines(lanes: list[int], warp_size: int, shift: int) -> list[int]:
    """Per warp of ``lanes``, its distinct sectors in ascending order."""
    if len(lanes) <= warp_size:
        return sorted({address >> shift for address in lanes})
    line_ids = []
    for start in range(0, len(lanes), warp_size):
        line_ids += sorted({address >> shift for address in lanes[start : start + warp_size]})
    return line_ids


def _stream_lines(addresses: list[int], merge_window: int, shift: int) -> list[int]:
    """The merge window element by element: a pending transaction absorbs
    the next request to its sector until it holds ``merge_window``."""
    if merge_window == 1:
        return [address >> shift for address in addresses]
    line_ids = []
    pending = held = None
    for address in addresses:
        line = address >> shift
        if line == pending and held < merge_window:
            held += 1
        else:
            line_ids.append(line)
            pending, held = line, 1
    return line_ids


def coalesce_warp(
    addresses: "np.ndarray | AddressRange",
    *,
    warp_size: int = WARP_SIZE,
    sector_bytes: int = SECTOR_BYTES,
    active_mask: np.ndarray | None = None,
) -> CoalesceResult:
    """Coalesce thread addresses warp-by-warp.

    Args:
        addresses: byte address per thread, in thread order, or the
            :class:`AddressRange` of an in-order walk.  The stream is
            chopped into consecutive groups of ``warp_size`` (the last
            warp may be partial).
        active_mask: optional boolean array marking active lanes;
            inactive lanes issue no access (predicated-off threads).
    """
    if warp_size <= 0:
        raise SimulationError(f"warp_size must be positive, got {warp_size}")
    shift = _sector_shift(sector_bytes)
    if (
        active_mask is None
        and _is_sector_walk(addresses, sector_bytes)
        and (warp_size * addresses.stride) & (sector_bytes - 1) == 0
    ):
        # Lanes arrive sorted: one transaction per sector, plus one per
        # warp start that does not begin a new sector.  A warp spans
        # whole sectors, so every warp starts at the base's offset within
        # its sector: either every start repeats the previous lane's
        # sector (offset >= stride) or none does.
        base, count, stride = addresses.base, addresses.count, addresses.stride
        first, last = _walk_ends(addresses, shift)
        repeats = _NO_REPEATS
        if base & (sector_bytes - 1) >= stride and count > warp_size:
            # Warp k >= 1 starts in sector first + k * step.
            step = (warp_size * stride) >> shift
            repeated = (count - 1) // warp_size
            repeats = np.arange(first + step, first + step * repeated + 1, step, dtype=np.int64)
        walk = SectorWalk(first, last, repeats)
        return CoalesceResult(count, walk.transactions, walk, sector_bytes)
    addresses = np.asarray(addresses, dtype=np.int64)
    if active_mask is not None:
        active_mask = np.asarray(active_mask, dtype=bool)
        if active_mask.shape != addresses.shape:
            raise SimulationError("active_mask must be parallel to addresses")
    if addresses.size <= SMALL_STREAM:
        lanes = addresses.tolist()
        if active_mask is not None:
            lanes = list(compress(lanes, active_mask.tolist()))
        line_ids = _warp_lines(lanes, warp_size, shift)
        return CoalesceResult(len(lanes), len(line_ids), line_ids, sector_bytes)
    if active_mask is not None:
        addresses = addresses[active_mask]
    n = addresses.size
    if n == 0:
        return CoalesceResult(0, 0, [], sector_bytes)

    lines = addresses >> shift
    if (lines[1:] < lines[:-1]).any():
        # Sort each warp's lanes; the last warp is padded with a value
        # that sorts last, so truncating drops exactly the padding.
        pad = np.full((-n) % warp_size, _PAD)
        grid = np.concatenate([lines, pad]).reshape(-1, warp_size)
        lines = np.sort(grid, axis=1).ravel()[:n]
    # A transaction starts wherever the sector changes or a warp starts.
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(lines[1:], lines[:-1], out=first[1:])
    first[::warp_size] = True
    return _result(n, lines[first], sector_bytes)


def coalesce_stream(
    addresses: "np.ndarray | AddressRange",
    *,
    merge_window: int = 4,
    sector_bytes: int = SECTOR_BYTES,
) -> CoalesceResult:
    """Coalesce an in-order request stream with a bounded merge window.

    Models the SCU coalescing unit: a pending transaction absorbs
    consecutive requests to the same sector, up to ``merge_window``
    elements per transaction (Table 1: 4-element merge window).  A
    request to a different sector — or the window filling up — issues a
    new transaction.
    """
    if merge_window <= 0:
        raise SimulationError(f"merge_window must be positive, got {merge_window}")
    shift = _sector_shift(sector_bytes)
    if _is_sector_walk(addresses, sector_bytes):
        # Each sector's run of elements issues ceil(run / window)
        # transactions; no run is longer than ceil(sector / stride).
        first, last = _walk_ends(addresses, shift)
        base, count, stride = addresses.base, addresses.count, addresses.stride
        if -(-sector_bytes // stride) <= merge_window:
            repeats = _NO_REPEATS
        else:
            ids = np.arange(first, last + 1, dtype=np.int64)
            # Each sector's first element: ceil((sector start - base) / stride).
            bounds = np.empty(ids.size + 1, dtype=np.int64)
            bounds[0], bounds[-1] = 0, count
            bounds[1:-1] = -((base - (ids[1:] << shift)) // stride)
            repeats = np.repeat(ids, (np.diff(bounds) - 1) // merge_window)
        walk = SectorWalk(first, last, repeats)
        return CoalesceResult(count, walk.transactions, walk, sector_bytes)
    addresses = np.asarray(addresses, dtype=np.int64)
    n = addresses.size
    if n <= SMALL_STREAM:
        line_ids = _stream_lines(addresses.tolist(), merge_window, shift)
        return CoalesceResult(n, len(line_ids), line_ids, sector_bytes)

    lines = addresses >> shift
    # Run boundaries: a run of one sector issues a transaction per
    # started window, all to that sector.
    edge = np.empty(n + 1, dtype=bool)
    edge[0] = edge[n] = True
    np.not_equal(lines[1:], lines[:-1], out=edge[1:n])
    bounds = np.flatnonzero(edge)
    runs = bounds[1:] - bounds[:-1]
    return _result(n, np.repeat(lines[bounds[:-1]], -(-runs // merge_window)), sector_bytes)


def sequential_addresses(
    count: int, *, base: int = 0, elem_bytes: int = 4
) -> np.ndarray:
    """Addresses of a dense sequential array walk (perfectly coalescable)."""
    if count < 0:
        raise SimulationError(f"count must be non-negative, got {count}")
    return base + np.arange(count, dtype=np.int64) * elem_bytes


def gather_addresses(
    indices: np.ndarray, *, base: int = 0, elem_bytes: int = 4
) -> np.ndarray:
    """Addresses of an indexed gather (sparse; coalescing depends on indices)."""
    return base + np.asarray(indices, dtype=np.int64) * elem_bytes
