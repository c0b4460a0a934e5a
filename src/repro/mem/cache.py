"""Exact set-associative LRU cache simulator.

Used for small traces (unit tests, SCU hash-table residency studies) and
as the ground truth against which the analytic estimator in
:mod:`repro.mem.locality` is validated.  For full-workload experiments
the estimator is used instead — an exact per-access simulation of a
multi-million-access trace in pure Python would dominate runtime without
changing any conclusion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..obs import NULL_OBS, Observability


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


@dataclass
class SetAssociativeCache:
    """An LRU set-associative cache over line ids.

    Attributes:
        capacity_bytes: total cache size.
        line_bytes: line (block) size in bytes.
        ways: associativity; ``capacity / (line * ways)`` must be a power
            of two so the set index is a bit mask.
    """

    capacity_bytes: int
    line_bytes: int = 128
    ways: int = 16
    stats: CacheStats = field(default_factory=CacheStats)
    name: str = "l2"
    obs: Observability = NULL_OBS

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0 or self.line_bytes <= 0 or self.ways <= 0:
            raise ConfigError("cache parameters must be positive")
        num_lines = self.capacity_bytes // self.line_bytes
        if num_lines == 0 or num_lines % self.ways:
            raise ConfigError(
                f"capacity {self.capacity_bytes} not divisible into {self.ways}-way sets"
            )
        self.num_sets = num_lines // self.ways
        if self.num_sets & (self.num_sets - 1):
            raise ConfigError(f"number of sets must be a power of two, got {self.num_sets}")
        # tags[set][way] = line id or -1; lru[set][way] = age counter.
        self._tags = np.full((self.num_sets, self.ways), -1, dtype=np.int64)
        self._ages = np.zeros((self.num_sets, self.ways), dtype=np.int64)
        self._clock = 0

    def access_line(self, line_id: int) -> bool:
        """Access one line id; returns True on hit."""
        self._clock += 1
        set_idx = line_id & (self.num_sets - 1)
        tags = self._tags[set_idx]
        self.stats.accesses += 1
        hit_ways = np.nonzero(tags == line_id)[0]
        if hit_ways.size:
            self._ages[set_idx, hit_ways[0]] = self._clock
            self.stats.hits += 1
            if self.obs.metrics.enabled:
                self.obs.metrics.counter("cache.hits").inc(cache=self.name)
            return True
        self.stats.misses += 1
        if self.obs.metrics.enabled:
            self.obs.metrics.counter("cache.misses").inc(cache=self.name)
        victim = int(np.argmin(self._ages[set_idx]))
        if tags[victim] != -1:
            self.stats.evictions += 1
        tags[victim] = line_id
        self._ages[set_idx, victim] = self._clock
        return False

    def access_lines(self, line_ids: np.ndarray) -> int:
        """Access a sequence of line ids; returns the number of hits.

        Batched equivalent of calling :meth:`access_line` per element —
        byte-identical tags, ages, way placement, and stats (pinned by
        :meth:`access_lines_reference` equivalence tests).  Accesses to
        different sets are independent, so the stream is replayed as a
        time-stepped matrix sweep: group accesses by set (stable
        argsort), then at step ``t`` process every set's ``t``-th access
        at once — tag compare, first-matching-way hit resolution
        (``argmax`` over booleans), and first-minimum-age victim choice
        (``argmin``) are all whole-array operations over the active
        sets.  Each set appears at most once per step, so the scattered
        updates never collide.  Total work is O(n·ways) element ops
        instead of n Python-level iterations.
        """
        lines = np.asarray(line_ids, dtype=np.int64).ravel()
        n = int(lines.size)
        if n == 0:
            return 0
        base_clock = self._clock
        set_ids = lines & (self.num_sets - 1)
        hits = misses = evictions = 0
        # Stable sort groups same-set accesses preserving stream order,
        # then within-set ranks split the stream into time steps.
        order = np.argsort(set_ids, kind="stable")
        sorted_sets = set_ids[order]
        indices = np.arange(n, dtype=np.int64)
        new_segment = np.ones(n, dtype=bool)
        new_segment[1:] = sorted_sets[1:] != sorted_sets[:-1]
        segment_start = np.maximum.accumulate(np.where(new_segment, indices, 0))
        rank = indices - segment_start
        step_order = np.argsort(rank, kind="stable")
        step_boundaries = np.nonzero(np.diff(rank[step_order]))[0] + 1
        for group in np.split(step_order, step_boundaries):
            rows = sorted_sets[group]  # distinct sets: one access each
            positions = order[group]
            line = lines[positions]
            tag_rows = self._tags[rows]
            match = tag_rows == line[:, None]
            is_hit = match.any(axis=1)
            way = np.where(
                is_hit,
                match.argmax(axis=1),  # first matching way
                np.argmin(self._ages[rows], axis=1),  # first oldest way
            )
            step_hits = int(is_hit.sum())
            hits += step_hits
            misses += group.size - step_hits
            victim_open = tag_rows[np.arange(group.size), way] != -1
            evictions += int((victim_open & ~is_hit).sum())
            self._ages[rows, way] = base_clock + positions + 1
            miss = ~is_hit
            self._tags[rows[miss], way[miss]] = line[miss]
        self._clock = base_clock + n
        self.stats.accesses += n
        self.stats.hits += hits
        self.stats.misses += misses
        self.stats.evictions += evictions
        if self.obs.metrics.enabled:
            if hits:
                self.obs.metrics.counter("cache.hits").inc(hits, cache=self.name)
            if misses:
                self.obs.metrics.counter("cache.misses").inc(misses, cache=self.name)
        return hits

    def access_lines_reference(self, line_ids: np.ndarray) -> int:
        """Sequential normative spec: one :meth:`access_line` per element."""
        lines = np.asarray(line_ids, dtype=np.int64).ravel()
        return sum(self.access_line(int(line)) for line in lines.tolist())

    def access_addresses(self, addresses: np.ndarray) -> int:
        """Access byte addresses (converted to lines); returns hits."""
        shift = int(self.line_bytes).bit_length() - 1
        return self.access_lines(np.asarray(addresses, dtype=np.int64) >> shift)

    def access_coalesced(self, result) -> int:
        """Access a coalescer's transactions, converting sector ids to
        this cache's line granularity; returns hits.

        This is the granularity-safe entry point for feeding a
        :class:`~repro.mem.coalescer.CoalesceResult` (whose ``line_ids``
        are 32-byte sector ids) into a cache with wider lines.
        """
        return self.access_lines(result.cache_line_ids(self.line_bytes))

    def reset(self) -> None:
        self._tags.fill(-1)
        self._ages.fill(0)
        self._clock = 0
        self.stats = CacheStats()

    @property
    def resident_lines(self) -> int:
        return int(np.count_nonzero(self._tags != -1))
