"""Analytic cache-hit estimation for large access streams.

The phase-level timing model needs an L2 hit rate for streams of
millions of transactions.  Rather than simulate every access, we use a
capacity-based reuse model:

* every *first* access to a line is a compulsory miss;
* a *reuse* hits with probability ``min(1, capacity_lines / working_set
  lines)`` — if the working set fits, (almost) every reuse hits; if it
  is ``k`` times the capacity, roughly ``1/k`` of reuses find their line
  still resident.

This is the classic "fractional residency" approximation.  Tests
validate it against the exact simulator on streams spanning fitting,
2x-over and 8x-over working sets, where it tracks simulated hit rate
within a few percentage points — enough fidelity for the timing model,
whose conclusions hinge on transaction *counts*, not hit-rate decimals.

Unique lines are counted as value changes between neighbours of the
sorted stream, in one pass: coalescer output mostly arrives already
non-decreasing, and only a stream that is not gets sorted.  Ids handed
over as a list of Python ints (the coalescer does so for at most
:data:`~repro.mem.coalescer.SMALL_STREAM` transactions) are counted as
a set instead, which costs less than the numpy calls.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import ConfigError


class LocalityProfile(NamedTuple):
    """Reuse structure of one access stream (in cache-line units)."""

    accesses: int
    unique_lines: int

    @property
    def reuses(self) -> int:
        return self.accesses - self.unique_lines


def profile_lines(line_ids: "np.ndarray | list[int]") -> LocalityProfile:
    """Measure the reuse structure of a stream of line ids.

    A list of Python ints is counted as a set; anything else takes the
    numpy kernel.
    """
    if type(line_ids) is list:
        return LocalityProfile(len(line_ids), len(set(line_ids)))
    line_ids = np.asarray(line_ids, dtype=np.int64)
    if line_ids.size == 0:
        return LocalityProfile(0, 0)
    if (line_ids[1:] < line_ids[:-1]).any():
        line_ids = np.sort(line_ids)
    changes = np.count_nonzero(line_ids[1:] != line_ids[:-1])
    return LocalityProfile(int(line_ids.size), 1 + int(changes))


def estimate_hit_rate(
    profile: LocalityProfile, capacity_bytes: int, line_bytes: int
) -> float:
    """Estimate the hit rate of ``profile`` on a cache of the given size."""
    return reuse_hit_rate(
        profile.accesses, profile.unique_lines, capacity_bytes, line_bytes
    )


def reuse_hit_rate(
    accesses: int, unique_lines: int, capacity_bytes: int, line_bytes: int
) -> float:
    """:func:`estimate_hit_rate` of the profile these numbers describe."""
    if capacity_bytes <= 0 or line_bytes <= 0:
        raise ConfigError("cache capacity and line size must be positive")
    if accesses == 0:
        return 0.0
    capacity_lines = capacity_bytes / line_bytes
    residency = min(1.0, capacity_lines / max(unique_lines, 1))
    return ((accesses - unique_lines) * residency) / accesses


def estimate_hits(
    line_ids: np.ndarray, capacity_bytes: int, line_bytes: int
) -> int:
    """Convenience wrapper: estimated hit count for a line-id stream."""
    profile = profile_lines(line_ids)
    rate = estimate_hit_rate(profile, capacity_bytes, line_bytes)
    return int(round(rate * profile.accesses))
