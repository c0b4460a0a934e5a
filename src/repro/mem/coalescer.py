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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError

#: Default transaction size. Maxwell L2 moves 32-byte sectors.
SECTOR_BYTES = 32
#: L1/texture cache line size used for grouping decisions.
LINE_BYTES = 128
#: Threads per warp on every NVIDIA architecture the paper targets.
WARP_SIZE = 32


@dataclass(frozen=True)
class CoalesceResult:
    """Outcome of running an address stream through a coalescer.

    ``line_ids`` are **sector** ids at ``sector_bytes`` granularity (one
    per transaction) — not cache-line ids.  Downstream cache models that
    track a different block size must convert via
    :meth:`cache_line_ids`; feeding sector ids straight into a 128-byte
    line cache silently mis-sizes the working set by 4x.
    """

    accesses: int
    transactions: int
    line_ids: np.ndarray  # one sector id per transaction, for cache modeling
    sector_bytes: int = SECTOR_BYTES

    @property
    def coalescing_factor(self) -> float:
        """Average accesses merged per transaction (higher is better)."""
        if self.transactions == 0:
            return 0.0
        return self.accesses / self.transactions

    @property
    def bytes_transferred(self) -> int:
        return self.transactions * self.sector_bytes

    def cache_line_ids(self, line_bytes: int) -> np.ndarray:
        """Transaction ids at ``line_bytes`` granularity.

        Identity when the granularities already match; otherwise each
        sector id maps into the (coarser) cache line containing it.
        """
        if line_bytes == self.sector_bytes:
            return self.line_ids
        if line_bytes < self.sector_bytes or line_bytes % self.sector_bytes:
            raise SimulationError(
                f"cache line size {line_bytes} is not a multiple of the "
                f"transaction sector size {self.sector_bytes}"
            )
        return self.line_ids // (line_bytes // self.sector_bytes)


def coalesce_warp(
    addresses: np.ndarray,
    *,
    warp_size: int = WARP_SIZE,
    sector_bytes: int = SECTOR_BYTES,
    active_mask: np.ndarray | None = None,
) -> CoalesceResult:
    """Coalesce thread addresses warp-by-warp.

    Args:
        addresses: byte address per thread, in thread order.  The stream
            is chopped into consecutive groups of ``warp_size`` (the last
            warp may be partial).
        active_mask: optional boolean array marking active lanes;
            inactive lanes issue no access (predicated-off threads).
    """
    if warp_size <= 0:
        raise SimulationError(f"warp_size must be positive, got {warp_size}")
    if sector_bytes <= 0 or sector_bytes & (sector_bytes - 1):
        raise SimulationError(f"sector_bytes must be a power of two, got {sector_bytes}")
    addresses = np.asarray(addresses, dtype=np.int64)
    if active_mask is not None:
        active_mask = np.asarray(active_mask, dtype=bool)
        if active_mask.shape != addresses.shape:
            raise SimulationError("active_mask must be parallel to addresses")
        addresses = addresses[active_mask]
    n = addresses.size
    if n == 0:
        return CoalesceResult(0, 0, np.empty(0, dtype=np.int64), sector_bytes)

    shift = int(sector_bytes).bit_length() - 1
    lines = addresses >> shift
    if (lines[1:] < lines[:-1]).any():
        # Sort each warp's lanes; the last warp is padded with a value
        # that sorts last, so truncating drops exactly the padding.
        pad = np.full((-n) % warp_size, np.iinfo(np.int64).max)
        grid = np.concatenate([lines, pad]).reshape(-1, warp_size)
        lines = np.sort(grid, axis=1).ravel()[:n]
    # A transaction starts wherever the sector changes or a warp starts.
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(lines[1:], lines[:-1], out=first[1:])
    first[::warp_size] = True
    line_ids = lines[first]
    return CoalesceResult(n, int(line_ids.size), line_ids, sector_bytes)


def coalesce_stream(
    addresses: np.ndarray,
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
    addresses = np.asarray(addresses, dtype=np.int64)
    n = addresses.size
    if n == 0:
        return CoalesceResult(0, 0, np.empty(0, dtype=np.int64), sector_bytes)

    shift = int(sector_bytes).bit_length() - 1
    lines = addresses >> shift
    # Run boundaries: a run of one sector issues a transaction per
    # started window, all to that sector.
    edge = np.empty(n + 1, dtype=bool)
    edge[0] = edge[n] = True
    np.not_equal(lines[1:], lines[:-1], out=edge[1:n])
    bounds = np.flatnonzero(edge)
    runs = bounds[1:] - bounds[:-1]
    line_ids = np.repeat(lines[bounds[:-1]], -(-runs // merge_window))
    return CoalesceResult(n, int(line_ids.size), line_ids, sector_bytes)


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
