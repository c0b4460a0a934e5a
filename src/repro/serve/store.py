"""L2 of the tiered result store: content-addressed reports on disk.

L1 is the in-memory :class:`~repro.obs.lru.LruCache` run cache inside
:mod:`repro.algorithms.runner`; it dies with the process.  This module
adds the persistent tier below it: one JSON file per canonical request
digest (:meth:`~repro.request.RunRequest.cache_digest`), so a report
simulated by any worker — or by a previous incarnation of the daemon —
is a disk hit for every later one.  The SCU paper's premise makes this
sound: a report is a deterministic function of the request, so a
content-addressed entry can never be stale, only absent.

Durability rules:

* **atomic writes** — entries are written to a tmp file in the store
  directory and ``os.replace``-d into place, so two workers racing the
  same key both land a complete (and identical) entry and a crash never
  leaves a half-written file under a real digest name;
* **schema-versioned envelope** — every entry records its layout
  version, the digest it claims, the full request, the report, and
  provenance (git SHA, interpreter, host), so a store directory is
  self-describing;
* **verification on read** — an entry whose JSON is broken, whose
  schema version is foreign, whose envelope digest disagrees with its
  filename, or whose embedded request does not re-digest to its name is
  **quarantined** (moved aside into ``quarantine/``, counted) rather
  than served or silently deleted;
* **size-bounded** — the store evicts least-recently-*used* entries
  (mtime order; reads refresh mtime) once the byte bound is exceeded.

Metrics land in the owning registry as ``serve.store.hits`` /
``.misses`` / ``.evictions`` / ``.corrupt`` (Prometheus
``serve_store_*``).  The store records nothing about wall-clock inside
the entries themselves: payloads are canonical, so a response served
from disk is byte-identical to a fresh simulation (pinned by tests).
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ServiceError
from ..mem.hierarchy import MemoryStats
from ..obs.metrics import MetricsRegistry, global_metrics
from ..phases import Engine, PhaseKind, PhaseReport, RunReport
from ..request import RunRequest

#: Bump on any backwards-incompatible change to the entry layout.
STORE_SCHEMA_VERSION = 1

#: ``kind`` marker inside every envelope.
STORE_KIND = "result-store-entry"

#: Default size bound: plenty for the full experiment grid (an entry is
#: a few KB) without letting a long-lived daemon fill the disk.
DEFAULT_STORE_MAX_BYTES = 256 * 1024 * 1024

#: Counter names (``serve_store_*`` in the Prometheus exposition).
STORE_HITS_METRIC = "serve.store.hits"
STORE_MISSES_METRIC = "serve.store.misses"
STORE_EVICTIONS_METRIC = "serve.store.evictions"
STORE_CORRUPT_METRIC = "serve.store.corrupt"

_HEX_DIGITS = frozenset("0123456789abcdef")


def report_to_dict(report: RunReport) -> Dict[str, Any]:
    """JSON form of a :class:`~repro.phases.RunReport`; exact round-trip.

    Every numeric field goes through ``float``/``int`` untouched, and
    Python's JSON writer emits shortest-repr floats, so
    :func:`report_from_dict` reconstructs a report whose derived
    response bytes are identical to the original's.
    """
    return {
        "algorithm": report.algorithm,
        "system": report.system,
        "dataset": report.dataset,
        "static_energy_j": float(report.static_energy_j),
        "phases": [
            {
                "name": phase.name,
                "engine": phase.engine.value,
                "kind": phase.kind.value,
                "elements": int(phase.elements),
                "instructions": int(phase.instructions),
                "time_s": float(phase.time_s),
                "dynamic_energy_j": float(phase.dynamic_energy_j),
                "memory": {
                    "accesses": int(phase.memory.accesses),
                    "transactions": int(phase.memory.transactions),
                    "l2_hits": int(phase.memory.l2_hits),
                    "dram_accesses": int(phase.memory.dram_accesses),
                    "dram_bytes": int(phase.memory.dram_bytes),
                    "row_hit_fraction": float(phase.memory.row_hit_fraction),
                },
            }
            for phase in report.phases
        ],
    }


def report_from_dict(payload: Any, *, source: str = "store entry") -> RunReport:
    """Rebuild a :class:`~repro.phases.RunReport` from its JSON form.

    Raises :class:`~repro.errors.ServiceError` on any malformed shape —
    the store maps that to quarantine, never to a served response.
    """
    try:
        phases = [
            PhaseReport(
                name=str(raw["name"]),
                engine=Engine(raw["engine"]),
                kind=PhaseKind(raw["kind"]),
                elements=int(raw["elements"]),
                instructions=int(raw["instructions"]),
                time_s=float(raw["time_s"]),
                dynamic_energy_j=float(raw["dynamic_energy_j"]),
                memory=MemoryStats(
                    accesses=int(raw["memory"]["accesses"]),
                    transactions=int(raw["memory"]["transactions"]),
                    l2_hits=int(raw["memory"]["l2_hits"]),
                    dram_accesses=int(raw["memory"]["dram_accesses"]),
                    dram_bytes=int(raw["memory"]["dram_bytes"]),
                    row_hit_fraction=float(raw["memory"]["row_hit_fraction"]),
                ),
            )
            for raw in payload["phases"]
        ]
        return RunReport(
            algorithm=str(payload["algorithm"]),
            system=str(payload["system"]),
            dataset=str(payload["dataset"]),
            phases=phases,
            static_energy_j=float(payload["static_energy_j"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ServiceError(f"{source}: malformed report payload: {error}") from error


class ResultStore:
    """Content-addressed, size-bounded, persistent report store (L2).

    Args:
        root: directory holding the entries (created if missing).
        max_bytes: byte bound across all live entries; exceeding it
            evicts oldest-mtime entries until back under the bound.
        registry: metrics registry for the ``serve.store.*`` counters;
            defaults to the process-wide registry.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        max_bytes: int = DEFAULT_STORE_MAX_BYTES,
        registry: Optional[MetricsRegistry] = None,
    ):
        if max_bytes <= 0:
            raise ServiceError(
                f"result store byte bound must be positive, got {max_bytes}"
            )
        self.root = Path(root)
        self.max_bytes = max_bytes
        self._registry = registry
        self._lock = threading.Lock()
        self.root.mkdir(parents=True, exist_ok=True)
        self._quarantine_dir = self.root / "quarantine"
        # A store inherited from a previous run may already be over
        # bound (e.g. the operator lowered --store-max-mb); trim now so
        # the invariant holds from the first request.
        self._evict_to_capacity()

    # -- metrics --------------------------------------------------------
    def _count(self, name: str, n: int = 1) -> None:
        if n <= 0:
            return
        registry = self._registry if self._registry is not None else global_metrics()
        registry.counter(name).inc(n)

    # -- paths ----------------------------------------------------------
    def path_for(self, digest: str) -> Path:
        """The entry file of one canonical digest."""
        if not digest or set(digest) - _HEX_DIGITS:
            raise ServiceError(f"not a canonical cache digest: {digest!r}")
        return self.root / f"{digest}.json"

    def _entries(self) -> List[Path]:
        return [
            path
            for path in self.root.glob("*.json")
            if path.is_file()
        ]

    # -- introspection ---------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Live entry count and byte total (quarantine excluded)."""
        entries = self._entries()
        total = 0
        for path in entries:
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return {"entries": len(entries), "bytes": total}

    def __len__(self) -> int:
        return len(self._entries())

    # -- read path -------------------------------------------------------
    def get(self, request: RunRequest) -> Optional[RunReport]:
        """Load the stored report of ``request``; ``None`` on a miss.

        A hit refreshes the entry's mtime (the LRU clock).  Anything
        unreadable or inconsistent is quarantined and reported as a
        miss — a corrupt entry must never surface as a response.
        """
        digest = request.cache_digest()
        path = self.path_for(digest)
        try:
            raw = path.read_text()
        except FileNotFoundError:
            self._count(STORE_MISSES_METRIC)
            return None
        except OSError:
            self._count(STORE_MISSES_METRIC)
            return None
        report = self._decode(raw, digest=digest, request=request, path=path)
        if report is None:
            self._count(STORE_MISSES_METRIC)
            return None
        try:
            os.utime(path)
        except OSError:
            pass  # recency refresh is best-effort; a hit is still a hit
        self._count(STORE_HITS_METRIC)
        return report

    def _decode(
        self, raw: str, *, digest: str, request: RunRequest, path: Path
    ) -> Optional[RunReport]:
        try:
            envelope = json.loads(raw)
        except json.JSONDecodeError:
            self._quarantine(path, reason="not JSON")
            return None
        if not isinstance(envelope, dict):
            self._quarantine(path, reason="not an object")
            return None
        if envelope.get("kind") != STORE_KIND:
            self._quarantine(path, reason="foreign kind")
            return None
        if envelope.get("schema_version") != STORE_SCHEMA_VERSION:
            self._quarantine(path, reason="foreign schema version")
            return None
        if envelope.get("digest") != digest:
            self._quarantine(path, reason="digest mismatch")
            return None
        # The embedded request must re-digest to the filename: a moved
        # or hand-edited entry fails here instead of serving the wrong
        # run's report.
        try:
            stored = RunRequest.from_dict(envelope.get("request"))
        except Exception:  # noqa: BLE001 — any malformed request quarantines
            self._quarantine(path, reason="malformed request")
            return None
        if stored.cache_digest() != digest or stored != request:
            self._quarantine(path, reason="request mismatch")
            return None
        try:
            return report_from_dict(envelope.get("report"), source=str(path))
        except ServiceError:
            self._quarantine(path, reason="malformed report")
            return None

    def _quarantine(self, path: Path, *, reason: str) -> None:
        """Move a bad entry aside (never serve, never silently delete)."""
        try:
            self._quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self._quarantine_dir / path.name)
        except OSError:
            # Even moving it failed; drop it so it cannot be served.
            try:
                path.unlink()
            except OSError:
                pass
        self._count(STORE_CORRUPT_METRIC)

    # -- write path ------------------------------------------------------
    def put(
        self,
        request: RunRequest,
        report: RunReport,
        *,
        provenance: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Persist ``report`` under ``request``'s digest (atomic).

        The entry is staged as a tmp file in the store directory and
        renamed into place, so concurrent writers of the same key both
        complete and later readers only ever see whole entries.
        """
        if provenance is None:
            from ..bench.record import collect_provenance

            provenance = collect_provenance()
        digest = request.cache_digest()
        path = self.path_for(digest)
        envelope = {
            "schema_version": STORE_SCHEMA_VERSION,
            "kind": STORE_KIND,
            "digest": digest,
            "request": request.to_dict(),
            "report": report_to_dict(report),
            "provenance": dict(provenance),
        }
        body = json.dumps(envelope, sort_keys=True, separators=(",", ":"))
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{digest[:16]}-", suffix=".tmp", dir=self.root
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(body)
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._evict_to_capacity(protect=path)
        return path

    def _evict_to_capacity(self, protect: Optional[Path] = None) -> None:
        """Drop oldest-mtime entries until the byte bound holds.

        ``protect`` (the entry just written) is never evicted even if
        it alone exceeds the bound — a store must not reject the very
        report it was asked to persist.
        """
        with self._lock:
            entries: List[Tuple[float, int, Path]] = []
            total = 0
            for path in self._entries():
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
                total += stat.st_size
            if total <= self.max_bytes:
                return
            evicted = 0
            for _, size, path in sorted(entries, key=lambda e: (e[0], e[2].name)):
                if total <= self.max_bytes:
                    break
                if protect is not None and path == protect:
                    continue
                try:
                    path.unlink()
                except OSError:
                    continue
                total -= size
                evicted += 1
        self._count(STORE_EVICTIONS_METRIC, evicted)


__all__ = [
    "STORE_SCHEMA_VERSION",
    "STORE_KIND",
    "DEFAULT_STORE_MAX_BYTES",
    "STORE_HITS_METRIC",
    "STORE_MISSES_METRIC",
    "STORE_EVICTIONS_METRIC",
    "STORE_CORRUPT_METRIC",
    "ResultStore",
    "report_to_dict",
    "report_from_dict",
]
