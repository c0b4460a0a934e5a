"""Composition of the memory system: coalescer -> L2 -> DRAM.

A simulation phase hands this module the coalesced transactions it
produced (real line ids); the hierarchy estimates L2 hits, derives DRAM
traffic and row locality, and returns a :class:`MemoryStats` bundle the
timing and energy models consume.

A coalesced in-order walk arrives as a
:class:`~repro.mem.coalescer.SectorWalk` (every sector from the first to
the last, ascending): its distinct L2 lines and its DRAM row changes
follow from those two ids, so its line ids are never built here.  Every
other stream is profiled and row-counted element by element: with numpy,
or, when the coalescer hands its ids over as a list of ints (at most
:data:`~repro.mem.coalescer.SMALL_STREAM` transactions), with plain
Python ints.

Pricing a stream builds one :class:`MemoryStats` (a named tuple) and
nothing else: the hit-rate and DRAM drain-time models are called with
plain numbers, and
a phase folds its streams' bundles in one pass
(:meth:`MemoryStats.fold`, bit-identical to chained :meth:`~MemoryStats.merged`).
A caller that prices a stream now and reports it later passes an
``observations`` list, which receives the stream's counter and
histogram updates instead of the registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import eq
from typing import Iterable, NamedTuple

import numpy as np

from ..obs import NULL_OBS, Observability
from ..obs.metrics import Update
from .coalescer import SECTOR_BYTES, CoalesceResult, SectorWalk
from .dram import DramConfig, DramModel, DramTraffic
from .locality import profile_lines, reuse_hit_rate


class MemoryStats(NamedTuple):
    """Aggregate memory behaviour of one phase (a named tuple: every
    priced stream builds one)."""

    accesses: int = 0  # thread/element-level accesses before coalescing
    transactions: int = 0  # after coalescing
    l2_hits: int = 0
    dram_accesses: int = 0
    dram_bytes: int = 0
    row_hit_fraction: float = 0.5

    def merged(self, other: "MemoryStats") -> "MemoryStats":
        """Combine two phases' stats (row locality weighted by DRAM bytes)."""
        total_bytes = self.dram_bytes + other.dram_bytes
        if total_bytes:
            row_hit = (
                self.row_hit_fraction * self.dram_bytes
                + other.row_hit_fraction * other.dram_bytes
            ) / total_bytes
        else:
            row_hit = 0.5
        return MemoryStats(
            accesses=self.accesses + other.accesses,
            transactions=self.transactions + other.transactions,
            l2_hits=self.l2_hits + other.l2_hits,
            dram_accesses=self.dram_accesses + other.dram_accesses,
            dram_bytes=self.dram_bytes + other.dram_bytes,
            row_hit_fraction=row_hit,
        )

    @classmethod
    def fold(cls, parts: Iterable["MemoryStats"]) -> "MemoryStats":
        """``MemoryStats()`` :meth:`merged` with each part in turn, in one
        pass and bit for bit: the running row-hit mean is updated by the
        same float operations, and no intermediate bundle is built."""
        accesses = transactions = l2_hits = dram_accesses = dram_bytes = 0
        row_hit = 0.5
        for part in parts:
            total_bytes = dram_bytes + part.dram_bytes
            if total_bytes:
                row_hit = (
                    row_hit * dram_bytes + part.row_hit_fraction * part.dram_bytes
                ) / total_bytes
            else:
                row_hit = 0.5
            dram_bytes = total_bytes
            accesses += part.accesses
            transactions += part.transactions
            l2_hits += part.l2_hits
            dram_accesses += part.dram_accesses
        return cls(accesses, transactions, l2_hits, dram_accesses, dram_bytes, row_hit)

    @property
    def coalescing_factor(self) -> float:
        if self.transactions == 0:
            return 0.0
        return self.accesses / self.transactions

    @property
    def l2_hit_rate(self) -> float:
        if self.transactions == 0:
            return 0.0
        return self.l2_hits / self.transactions

    def dram_traffic(self) -> DramTraffic:
        return DramTraffic(
            accesses=self.dram_accesses,
            bytes_transferred=self.dram_bytes,
            row_hit_fraction=self.row_hit_fraction,
        )


def row_hit_fraction(
    line_ids: "np.ndarray | list[int] | SectorWalk",
    *,
    row_bytes: int = 2048,
    sector_bytes: int = SECTOR_BYTES,
) -> float:
    """Fraction of consecutive DRAM transactions staying in the same row.

    ``line_ids`` are transaction ids at ``sector_bytes`` granularity —
    callers passing ids of a different block size must say so, or rows
    are mis-sized by the granularity ratio.  A :class:`SectorWalk`
    changes row once per row boundary between its ends.  A list of
    Python ints is compared element by element; anything else takes the
    numpy kernel.
    """
    lines_per_row = max(1, row_bytes // sector_bytes)
    if isinstance(line_ids, SectorWalk):
        count = line_ids.transactions
        if count < 2:
            return 0.5
        return (count - line_ids.distinct(lines_per_row)) / (count - 1)
    if type(line_ids) is list:
        if len(line_ids) < 2:
            return 0.5
        rows = [line // lines_per_row for line in line_ids]
        return sum(map(eq, rows[1:], rows)) / (len(rows) - 1)
    line_ids = np.asarray(line_ids, dtype=np.int64)
    if line_ids.size < 2:
        return 0.5
    rows = line_ids // lines_per_row
    return int(np.count_nonzero(rows[1:] == rows[:-1])) / (rows.size - 1)


@dataclass
class MemoryHierarchy:
    """L2 + DRAM stack shared by the GPU SMs and the SCU."""

    l2_capacity_bytes: int
    dram: DramConfig
    l2_line_bytes: int = SECTOR_BYTES
    obs: Observability = NULL_OBS
    _dram_model: DramModel = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._dram_model = DramModel(self.dram, obs=self.obs)

    def attach_obs(self, obs: Observability) -> None:
        """Point this hierarchy (and its DRAM model) at an observer."""
        self.obs = obs
        self._dram_model.obs = obs

    def process(
        self,
        result: CoalesceResult,
        *,
        l2_bypass: bool = False,
        observations: "list[Update] | None" = None,
    ) -> MemoryStats:
        """Turn coalesced transactions into hierarchy-level statistics.

        Args:
            result: the coalescer output (real transaction line ids, or
                the closed form of an in-order walk's).
            l2_bypass: model streaming accesses that are not worth
                caching (the GPU marks such loads; the SCU's bulk
                sequential writes behave this way too).
            observations: when given, the stream's counter and histogram
                updates are appended here instead of recorded, for the
                caller to apply with :meth:`MetricsRegistry.record`.
        """
        transactions = result.transactions
        if transactions == 0:
            return MemoryStats()
        # The coalescer emits *sector* ids; the L2 tracks residency at
        # its own line granularity.  Convert before profiling reuse —
        # with the default sector-sized L2 lines this is the identity,
        # but a 128-byte-line configuration would otherwise overstate
        # the working set (and understate hits) by the size ratio.
        sectors = result.sectors
        if isinstance(sectors, SectorWalk):
            lines = sectors.distinct(result.line_ratio(self.l2_line_bytes))
        elif type(sectors) is list:
            # Few transactions' ids stay Python ints (see SMALL_STREAM).
            ratio = result.line_ratio(self.l2_line_bytes)
            if ratio != 1:
                sectors = [sector // ratio for sector in sectors]
            lines = profile_lines(sectors).unique_lines
        else:
            lines = profile_lines(result.cache_line_ids(self.l2_line_bytes)).unique_lines
        if l2_bypass:
            hit_rate = 0.0
        else:
            hit_rate = reuse_hit_rate(
                transactions, lines, self.l2_capacity_bytes, self.l2_line_bytes
            )
        l2_hits = int(round(hit_rate * transactions))
        dram_accesses = transactions - l2_hits
        dram_bytes = dram_accesses * result.sector_bytes
        if observations is not None or self.obs.metrics.enabled:
            updates = (
                ("counter", "mem.accesses", result.accesses, {}),
                ("counter", "mem.l2.transactions", transactions, {}),
                ("counter", "mem.l2.hits", l2_hits, {}),
                ("counter", "mem.l2.misses", dram_accesses, {}),
                ("counter", "mem.dram.bytes", dram_bytes, {}),
                ("histogram", "mem.l2.hit_rate", hit_rate, {}),
            )
            if observations is None:
                self.obs.metrics.record(updates)
            else:
                observations.extend(updates)
        # DRAM sees the miss stream; its locality mirrors the transaction
        # stream's (misses preserve order through the L2 miss queue).
        return MemoryStats(
            result.accesses,
            transactions,
            l2_hits,
            dram_accesses,
            dram_bytes,
            row_hit_fraction(
                result.sectors,
                row_bytes=self.dram.row_bytes,
                sector_bytes=result.sector_bytes,
            ),
        )

    def dram_time_s(
        self, stats: MemoryStats, *, observations: "list[Update] | None" = None
    ) -> float:
        """DRAM drain time of one stream's misses (``observations`` as in
        :meth:`process`)."""
        return self._dram_model.drain_time_s(
            stats.dram_accesses,
            stats.dram_bytes,
            stats.row_hit_fraction,
            observations=observations,
        )

    def dram_dynamic_energy_j(self, stats: MemoryStats) -> float:
        return self._dram_model.dynamic_energy_j(stats.dram_traffic())

    def dram_static_energy_j(self, elapsed_s: float) -> float:
        return self._dram_model.static_energy_j(elapsed_s)
