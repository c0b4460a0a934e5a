"""Bounded LRU cache with observability counters.

One reusable cache class backs every memoized-result store in the
repository — the whole-run cache of :mod:`repro.algorithms.runner`, the
experiment-report cache of :mod:`repro.harness.experiments`, and the
``repro serve`` daemon's leader-span cache.  Both of the report caches
used to manage their own dictionaries (one of them unbounded); sharing
the implementation means every cache is bounded, LRU-evicting, and
reports ``<prefix>.hits`` / ``<prefix>.misses`` / ``<prefix>.evictions``
into the process-wide metrics registry the same way.

The cache is **thread-safe**: the serve daemon's ``ThreadingHTTPServer``
hits the shared run cache and the leader-span cache from many handler
threads at once, and an unlocked ``OrderedDict`` corrupts under
concurrent ``move_to_end``/``popitem`` (a ``KeyError`` mid-reorder at
best, a broken internal linked list at worst).  All mutation happens
under one internal lock.  Metric counting stays outside it, so a cache
counter never nests the registry's lock under the data lock; the
registry's counters are atomic on their own.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Optional

from ..errors import ObservabilityError
from .metrics import MetricsRegistry, global_metrics

_SENTINEL = object()


class LruCache:
    """A bounded, least-recently-used mapping with cache metrics.

    Args:
        capacity: maximum number of entries; inserting beyond it evicts
            the least recently used entry.
        metrics_prefix: counter-name prefix (``<prefix>.hits`` etc.);
            ``None`` disables metric recording.
        registry: registry the counters go to; defaults to the
            process-wide :func:`~repro.obs.metrics.global_metrics`.
    """

    def __init__(
        self,
        capacity: int,
        *,
        metrics_prefix: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        if capacity <= 0:
            raise ObservabilityError(
                f"LRU cache capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self._prefix = metrics_prefix
        self._registry = registry
        self._lock = threading.Lock()
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()

    def _count(self, event: str, n: int = 1) -> None:
        if self._prefix is None or n <= 0:
            return
        registry = self._registry if self._registry is not None else global_metrics()
        registry.counter(f"{self._prefix}.{event}").inc(n)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, refreshing its recency; counts a hit or miss."""
        with self._lock:
            value = self._data.get(key, _SENTINEL)
            if value is not _SENTINEL:
                self._data.move_to_end(key)
        if value is _SENTINEL:
            self._count("misses")
            return default
        self._count("hits")
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) an entry, evicting LRU entries past capacity."""
        evicted = 0
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                evicted += 1
        self._count("evictions", evicted)

    def __setitem__(self, key: Hashable, value: Any) -> None:
        self.put(key, value)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        # Membership is a passive probe: no recency refresh, no counters.
        with self._lock:
            return key in self._data

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
