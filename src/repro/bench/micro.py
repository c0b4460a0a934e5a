"""Kernel-level microbenchmarks (``repro bench --micro``).

``repro bench`` measures whole grid cells — an algorithm on a dataset
end to end — which is the right granularity for paper fidelity but too
coarse to localise a kernel regression: a 2x slowdown in the DRAM
replay hides inside a cell whose wall clock is dominated by expansion.
The micro suite times the individual vectorized kernels (DRAM batch
replay, unique filtering, grouping, warp/stream coalescing, LRU cache
replay, CC labelling, L2 reuse profiling, closed-form pricing of
sequential walks through the memory hierarchy, the GPU's best-effort and
warp duplicate culls, PageRank's rank-update scatter priced once per
run, a traversal-shaped mix of short streams priced one by one) on
fixed-seed synthetic inputs and writes the
same style of schema-versioned artifact, so
``--compare`` against the committed ``benchmarks/baseline_micro.json``
gates future kernel work through the existing exit-2 path.

Each record pairs three things:

* **wall statistics** of the vectorized kernel (warmup discarded,
  same :class:`~repro.bench.record.WallStats` convention as ``bench``);
* **reference wall statistics and speedup** where a scalar
  ``*_reference`` twin exists — the artifact is the durable proof that
  the batch replay actually pays (the DRAM kernel must stay >= 3x on a
  100k-address trace);
* **deterministic checksums** (cycles, hit/miss counts, permutation
  and label digests) compared *exactly* by ``--compare``: checksum
  drift is a correctness change in a kernel, not noise.  When a
  reference exists its checksums are asserted equal to the vectorized
  kernel's at measurement time, so every micro run re-proves the
  equivalence contract.

Timed repetitions are also observed into the process-wide
:func:`~repro.obs.metrics.global_metrics` registry as
``scu.kernel.<name>.seconds`` histograms, which ``repro serve``
already exposes at ``/metrics``.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import mem
from ..algorithms import connected_components_labels, connected_components_reference
from ..algorithms.common import (
    KERNEL_COSTS,
    best_effort_cull,
    best_effort_cull_reference,
    warp_cull,
    warp_cull_reference,
)
from ..core.api import PAPER_SCALE
from ..core.config import SCU_TX1, HashTableConfig
from ..core.filtering import filter_unique, filter_unique_reference
from ..core.grouping import group_order, group_order_reference
from ..core.ops import expanded_indices
from ..core.pipeline import ScuStream, streams_memory_stats
from ..errors import BenchError
from ..gpu.config import TX1
from ..gpu.device import GpuDevice
from ..gpu.kernel import AccessStream, KernelSpec, atomic_stream
from ..graph.csr import CsrGraph
from ..graph.generators import generate_delaunay, generate_kron
from ..mem.address_space import AddressSpace, DeviceContext
from ..mem.cache import SetAssociativeCache
from ..mem.coalescer import coalesce_stream, coalesce_warp
from ..mem.dram import GDDR5
from ..mem.dram_sim import BankedDramSim
from ..mem.hierarchy import MemoryHierarchy, MemoryStats
from ..mem.locality import profile_lines
from ..obs.metrics import MetricsRegistry, global_metrics
from ..phases import PhaseKind
from .compare import V_MISSING, V_SIM, V_WALL, V_FASTER, CompareReport, Finding
from .record import WallStats, collect_provenance

#: Bump on any backwards-incompatible change to the micro-artifact layout.
MICRO_SCHEMA_VERSION = 1

#: Distinguishes micro artifacts from grid artifacts at load time.
MICRO_KIND = "bench-micro"

#: Default timed repetitions per kernel (one extra warmup is discarded).
DEFAULT_MICRO_REPS = 3

#: The DRAM replay trace length is pinned in both quick and full modes:
#: the committed baseline's >= 3x speedup claim is defined at this size.
DRAM_TRACE_LEN = 100_000

_MICRO_TABLE = HashTableConfig(
    name="micro", capacity_bytes=64 * 1024, ways=1, bytes_per_entry=8
)


@dataclass(frozen=True)
class MicroRecord:
    """One kernel's measurement."""

    kernel: str
    size: int
    wall: WallStats
    sim: Dict[str, float]  # deterministic checksums, exact-compare
    reference_wall: Optional[WallStats] = None
    speedup: Optional[float] = None  # reference median / vectorized median

    @property
    def key(self) -> Tuple[str, int]:
        return (self.kernel, self.size)

    def label(self) -> str:
        return f"{self.kernel}[n={self.size}]"


@dataclass
class MicroArtifact:
    """A whole micro run, serialized as ``BENCH_micro_<tag>.json``."""

    tag: str
    provenance: Dict[str, Any]
    records: List[MicroRecord] = field(default_factory=list)
    metrics: List[Dict[str, Any]] = field(default_factory=list)
    quick: bool = False
    schema_version: int = MICRO_SCHEMA_VERSION
    kind: str = MICRO_KIND

    def record_map(self) -> Dict[Tuple[str, int], MicroRecord]:
        return {record.key: record for record in self.records}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "tag": self.tag,
            "quick": self.quick,
            "provenance": dict(self.provenance),
            "records": [
                {
                    "kernel": r.kernel,
                    "size": r.size,
                    "wall": {
                        "reps": r.wall.reps,
                        "min_s": r.wall.min_s,
                        "median_s": r.wall.median_s,
                        "mean_s": r.wall.mean_s,
                        "iqr_s": r.wall.iqr_s,
                        "warmup_s": r.wall.warmup_s,
                    },
                    "reference_wall": None
                    if r.reference_wall is None
                    else {
                        "reps": r.reference_wall.reps,
                        "min_s": r.reference_wall.min_s,
                        "median_s": r.reference_wall.median_s,
                        "mean_s": r.reference_wall.mean_s,
                        "iqr_s": r.reference_wall.iqr_s,
                        "warmup_s": r.reference_wall.warmup_s,
                    },
                    "speedup": r.speedup,
                    "sim": dict(r.sim),
                }
                for r in self.records
            ],
            "metrics": list(self.metrics),
        }

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(
            json.dumps(self.to_dict(), indent=2, allow_nan=False) + "\n"
        )
        return path

    @classmethod
    def from_dict(
        cls, payload: Dict[str, Any], *, source: str = "artifact"
    ) -> "MicroArtifact":
        if not isinstance(payload, dict):
            raise BenchError(f"{source}: expected a JSON object")
        if payload.get("kind") != MICRO_KIND:
            raise BenchError(
                f"{source}: kind {payload.get('kind')!r} is not a micro artifact "
                f"(expected {MICRO_KIND!r})"
            )
        version = payload.get("schema_version")
        if version != MICRO_SCHEMA_VERSION:
            raise BenchError(
                f"{source}: schema version {version!r} is not supported "
                f"(this build reads version {MICRO_SCHEMA_VERSION})"
            )
        for req in ("tag", "provenance", "records"):
            if req not in payload:
                raise BenchError(f"{source}: missing field {req!r}")
        records: List[MicroRecord] = []
        for index, raw in enumerate(payload["records"]):
            try:
                reference_wall = raw.get("reference_wall")
                records.append(
                    MicroRecord(
                        kernel=raw["kernel"],
                        size=raw["size"],
                        wall=WallStats(**raw["wall"]),
                        sim=dict(raw["sim"]),
                        reference_wall=None
                        if reference_wall is None
                        else WallStats(**reference_wall),
                        speedup=raw.get("speedup"),
                    )
                )
            except (KeyError, TypeError) as error:
                raise BenchError(
                    f"{source}: record {index} is malformed: {error!r}"
                ) from error
        return cls(
            tag=payload["tag"],
            provenance=payload["provenance"],
            records=records,
            metrics=payload.get("metrics", []),
            quick=bool(payload.get("quick", False)),
            schema_version=version,
        )

    @classmethod
    def load(cls, path: str | Path) -> "MicroArtifact":
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError as error:
            raise BenchError(f"{path}: no such artifact") from error
        except json.JSONDecodeError as error:
            raise BenchError(f"{path}: not a valid artifact: {error}") from error
        return cls.from_dict(payload, source=str(path))


# ---------------------------------------------------------------------------
# Kernel definitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MicroKernel:
    """One benchmarked kernel: fixed-seed inputs, a vectorized body, and
    an optional scalar reference returning the same checksums."""

    name: str
    make_inputs: Callable[[bool], Tuple[int, Dict[str, Any]]]  # quick -> (size, inputs)
    run: Callable[[Dict[str, Any]], Dict[str, float]]
    reference: Optional[Callable[[Dict[str, Any]], Dict[str, float]]] = None


def _perm_digest(perm: np.ndarray) -> int:
    # Position-weighted sum: order-sensitive, exact in 64-bit JSON ints
    # for the sizes used here.
    return int(np.sum(perm * np.arange(1, perm.size + 1, dtype=np.int64)))


def _dram_inputs(quick: bool) -> Tuple[int, Dict[str, Any]]:
    rng = np.random.default_rng(2026)
    addresses = rng.integers(0, 1 << 24, size=DRAM_TRACE_LEN) * 32
    return DRAM_TRACE_LEN, {"addresses": addresses}


def _dram_run(inputs: Dict[str, Any]) -> Dict[str, float]:
    sim = BankedDramSim(config=GDDR5)  # fresh device: row state is per-run
    result = sim.process(inputs["addresses"])
    return {
        "cycles": float(result.cycles),
        "row_hits": float(result.row_hits),
        "row_misses": float(result.row_misses),
    }


def _dram_reference(inputs: Dict[str, Any]) -> Dict[str, float]:
    sim = BankedDramSim(config=GDDR5)
    result = sim.process_reference(inputs["addresses"])
    return {
        "cycles": float(result.cycles),
        "row_hits": float(result.row_hits),
        "row_misses": float(result.row_misses),
    }


def _filter_inputs(quick: bool) -> Tuple[int, Dict[str, Any]]:
    n = 50_000 if quick else 200_000
    rng = np.random.default_rng(2027)
    return n, {"ids": rng.integers(0, n // 2, size=n)}


def _filter_run(inputs: Dict[str, Any]) -> Dict[str, float]:
    keep = filter_unique(inputs["ids"], _MICRO_TABLE)
    return {
        "kept": float(keep.sum()),
        "mask_digest": float(_perm_digest(keep.astype(np.int64))),
    }


def _filter_reference(inputs: Dict[str, Any]) -> Dict[str, float]:
    keep = filter_unique_reference(inputs["ids"], _MICRO_TABLE)
    return {
        "kept": float(keep.sum()),
        "mask_digest": float(_perm_digest(keep.astype(np.int64))),
    }


def _group_inputs(quick: bool) -> Tuple[int, Dict[str, Any]]:
    n = 25_000 if quick else 100_000
    rng = np.random.default_rng(2028)
    return n, {"blocks": rng.integers(0, 4096, size=n)}


def _group_run(inputs: Dict[str, Any]) -> Dict[str, float]:
    perm = group_order(inputs["blocks"], _MICRO_TABLE)
    return {"perm_digest": float(_perm_digest(perm)), "length": float(perm.size)}


def _group_reference(inputs: Dict[str, Any]) -> Dict[str, float]:
    perm = group_order_reference(inputs["blocks"], _MICRO_TABLE)
    return {"perm_digest": float(_perm_digest(perm)), "length": float(perm.size)}


def _coalesce_inputs(quick: bool) -> Tuple[int, Dict[str, Any]]:
    n = 50_000 if quick else 200_000
    rng = np.random.default_rng(2029)
    return n, {"addresses": rng.integers(0, n, size=n) * 4}


def _coalesce_warp_run(inputs: Dict[str, Any]) -> Dict[str, float]:
    result = coalesce_warp(inputs["addresses"])
    return {
        "transactions": float(result.transactions),
        "accesses": float(result.accesses),
    }


def _coalesce_stream_run(inputs: Dict[str, Any]) -> Dict[str, float]:
    result = coalesce_stream(inputs["addresses"])
    return {
        "transactions": float(result.transactions),
        "accesses": float(result.accesses),
    }


def _profile_inputs(quick: bool) -> Tuple[int, Dict[str, Any]]:
    n = 50_000 if quick else 200_000
    rng = np.random.default_rng(2033)
    # Shaped like PageRank's rank-update atomics as the L2 profile sees
    # them: one 4-byte rank per edge destination over a bounded node
    # range (about six edges per node), warp-coalesced into sectors.
    ranks = rng.integers(0, n // 6, size=n) * 4
    return n, {"ids": coalesce_warp(ranks).line_ids}


def _profile_run(inputs: Dict[str, Any]) -> Dict[str, float]:
    profile = profile_lines(inputs["ids"])
    return {
        "accesses": float(profile.accesses),
        "unique_lines": float(profile.unique_lines),
    }


def _profile_reference(inputs: Dict[str, Any]) -> Dict[str, float]:
    ids = inputs["ids"].tolist()
    return {"accesses": float(len(ids)), "unique_lines": float(len(set(ids)))}


def _hierarchy_inputs(quick: bool) -> Tuple[int, Dict[str, Any]]:
    n = 50_000 if quick else 200_000
    space = AddressSpace()
    offsets = space.alloc("csr.offsets", n + 1)
    node_data = space.alloc("node.state", n)
    # PageRank's sequential walks: a whole node_data sweep, and the
    # offsets[1:] prefix, which starts 4 bytes into a sector.
    return n, {"walks": (node_data.span(), offsets.span(1, n))}


def _hierarchy_prices(walks) -> Dict[str, float]:
    """Every walk through the warp coalescer and the SCU's 8-element
    window, then the TX1's L2 and DRAM.  Floats compare bit for bit."""
    hierarchy = MemoryHierarchy(l2_capacity_bytes=TX1.l2_bytes, dram=TX1.dram)
    total = MemoryStats.fold(
        hierarchy.process(result)
        for walk in walks
        for result in (coalesce_warp(walk), coalesce_stream(walk, merge_window=8))
    )
    return {
        "transactions": float(total.transactions),
        "l2_hits": float(total.l2_hits),
        "dram_bytes": float(total.dram_bytes),
        "row_hit_fraction": total.row_hit_fraction,
    }


def _hierarchy_run(inputs: Dict[str, Any]) -> Dict[str, float]:
    return _hierarchy_prices(inputs["walks"])


def _hierarchy_reference(inputs: Dict[str, Any]) -> Dict[str, float]:
    return _hierarchy_prices([np.asarray(walk) for walk in inputs["walks"]])


def _cull_inputs(quick: bool) -> Tuple[int, Dict[str, Any]]:
    # A kron-shaped BFS edge frontier: the adjacency lists of 40% of a
    # Graph500 graph's nodes in a random (discovery-like) order, so
    # destinations are skewed toward hubs and repeat near and far apart.
    graph = generate_kron(scale=12 if quick else 14, edge_factor=16, seed=2034)
    rng = np.random.default_rng(2034)
    nodes = rng.permutation(graph.num_nodes)[: int(0.4 * graph.num_nodes)]
    ids = graph.edges[expanded_indices(graph.offsets[nodes], graph.out_degrees[nodes])]
    return int(ids.size), {"ids": ids}


def _cull_checks(best_effort: np.ndarray, warp: np.ndarray) -> Dict[str, float]:
    return {
        "best_effort_kept": float(best_effort.sum()),
        "best_effort_digest": float(_perm_digest(best_effort.astype(np.int64))),
        "warp_kept": float(warp.sum()),
        "warp_digest": float(_perm_digest(warp.astype(np.int64))),
    }


def _cull_run(inputs: Dict[str, Any]) -> Dict[str, float]:
    return _cull_checks(best_effort_cull(inputs["ids"]), warp_cull(inputs["ids"]))


def _cull_reference(inputs: Dict[str, Any]) -> Dict[str, float]:
    return _cull_checks(
        best_effort_cull_reference(inputs["ids"]), warp_cull_reference(inputs["ids"])
    )


#: Rank-update launches of one PageRank run on ``delaunay`` (its
#: iterations to convergence).
PAGERANK_ITERATIONS = 18


def _scatter_inputs(quick: bool) -> Tuple[int, Dict[str, Any]]:
    # The delaunay dataset's shape (16k points, about six edges each),
    # placed as PageRank places it: edge and weight frontiers walked in
    # order, one atomic per edge onto its destination's rank.
    graph = generate_delaunay(num_points=16384 if quick else 65536, seed=2035)
    ctx = DeviceContext()
    ranks = ctx.array("node.state", np.ones(graph.num_nodes))
    return graph.num_edges, {
        "walks": (
            ctx.array("pr.ef", graph.edges).span(),
            ctx.array("pr.wf", np.zeros(graph.num_edges)).span(),
        ),
        "scatter": ranks.addresses(graph.edges),
    }


def _rank_updates(gpu: GpuDevice, inputs: Dict[str, Any], scatter) -> Dict[str, float]:
    """``pr.rank_update`` launches on ``gpu``, each issuing ``scatter``
    (an atomic stream, or its cost).  Floats compare bit for bit."""
    reports = []
    for _ in range(PAGERANK_ITERATIONS):
        update = KernelSpec(
            "pr.rank_update",
            PhaseKind.PROCESSING,
            threads=int(inputs["scatter"].size),
            instructions_per_thread=KERNEL_COSTS["pr.rank_update"],
        )
        for walk in inputs["walks"]:
            update.load(walk)
        update.accesses.append(scatter)
        reports.append(gpu.run(update))
    total = MemoryStats.fold(report.memory for report in reports)
    return {
        "transactions": float(total.transactions),
        "l2_hits": float(total.l2_hits),
        "dram_bytes": float(total.dram_bytes),
        "row_hit_fraction": total.row_hit_fraction,
        "time_s": sum(report.time_s for report in reports),
        "energy_j": sum(report.dynamic_energy_j for report in reports),
    }


def _scatter_run(inputs: Dict[str, Any]) -> Dict[str, float]:
    gpu = GpuDevice(TX1, memory_scale=PAPER_SCALE)
    return _rank_updates(gpu, inputs, gpu.price(atomic_stream(inputs["scatter"])))


def _scatter_reference(inputs: Dict[str, Any]) -> Dict[str, float]:
    gpu = GpuDevice(TX1, memory_scale=PAPER_SCALE)
    return _rank_updates(gpu, inputs, atomic_stream(inputs["scatter"]))


#: Streams an SCU operation prices together in the short-stream mix.
SCU_OP_STREAMS = 4


def _small_stream_inputs(quick: bool) -> Tuple[int, Dict[str, Any]]:
    # Shaped like a BFS/SSSP perfbench pass: 74% in-order walks (median
    # length near 80), the rest gathers and hash probes of 1-128
    # addresses, sorted or not; 64% priced by the GPU's warp coalescer,
    # the rest by the SCU's stream coalescer, four streams per operation.
    n = 4000 if quick else 16000
    rng = np.random.default_rng(2036)
    space = AddressSpace()
    arrays = [space.alloc(f"a{i}", 1 << 14, elem) for i, elem in enumerate((4, 4, 8))]
    gpu, scu = [], []
    for _ in range(n):
        array = arrays[int(rng.integers(len(arrays)))]
        if rng.random() < 0.74:
            start = int(rng.integers(0, 4096))
            count = min(int(rng.lognormal(4.4, 1.5)), array.num_elements - start)
            addresses = array.span(start, count)
        else:
            indices = rng.integers(0, int(rng.choice([64, 4096, 1 << 14])), size=int(rng.integers(1, 129)))
            addresses = array.addresses(np.sort(indices) if rng.random() < 0.5 else indices)
        if rng.random() < 0.64:
            gpu.append(addresses)
        else:
            scu.append((addresses, isinstance(addresses, np.ndarray) and rng.random() < 0.3))
    return n, {"gpu": gpu, "scu": scu}


def _small_stream_prices(inputs: Dict[str, Any], materialise: bool) -> Dict[str, float]:
    """Every stream priced alone on a TX1 (SCU streams a few per
    operation), folded; floats compare bit for bit."""

    def stream(addresses):
        return np.asarray(addresses) if materialise else addresses

    gpu = GpuDevice(TX1, memory_scale=PAPER_SCALE)
    parts = []
    drain_s = 0.0
    for addresses in inputs["gpu"]:
        cost = gpu.price(AccessStream(stream(addresses)))
        parts.append(cost.memory)
        drain_s += cost.dram_s
    scu = inputs["scu"]
    for first in range(0, len(scu), SCU_OP_STREAMS):
        op = [
            ScuStream("data", stream(addresses), random_access=probe)
            for addresses, probe in scu[first : first + SCU_OP_STREAMS]
        ]
        memory, dram_s = streams_memory_stats(op, SCU_TX1, gpu.hierarchy)
        parts.append(memory)
        drain_s += dram_s
    total = MemoryStats.fold(parts)
    return {
        "transactions": float(total.transactions),
        "l2_hits": float(total.l2_hits),
        "dram_bytes": float(total.dram_bytes),
        "row_hit_fraction": total.row_hit_fraction,
        "drain_s": drain_s,
    }


@contextlib.contextmanager
def _numpy_kernels():
    """Price every explicit stream with the numpy kernels: the longest
    stream the plain-int path takes is set to 0 meanwhile."""
    saved = mem.coalescer.SMALL_STREAM
    try:
        mem.coalescer.SMALL_STREAM = 0
        yield
    finally:
        mem.coalescer.SMALL_STREAM = saved


def _small_stream_run(inputs: Dict[str, Any]) -> Dict[str, float]:
    return _small_stream_prices(inputs, materialise=False)


def _small_stream_reference(inputs: Dict[str, Any]) -> Dict[str, float]:
    with _numpy_kernels():
        return _small_stream_prices(inputs, materialise=True)


def _cache_inputs(quick: bool) -> Tuple[int, Dict[str, Any]]:
    n = 25_000 if quick else 100_000
    rng = np.random.default_rng(2030)
    return n, {"lines": rng.integers(0, 8192, size=n)}


def _make_cache() -> SetAssociativeCache:
    return SetAssociativeCache(capacity_bytes=256 * 1024, line_bytes=128, ways=8)


def _cache_run(inputs: Dict[str, Any]) -> Dict[str, float]:
    cache = _make_cache()
    cache.access_lines(inputs["lines"])
    return {
        "hits": float(cache.stats.hits),
        "misses": float(cache.stats.misses),
        "evictions": float(cache.stats.evictions),
    }


def _cache_reference(inputs: Dict[str, Any]) -> Dict[str, float]:
    cache = _make_cache()
    cache.access_lines_reference(inputs["lines"])
    return {
        "hits": float(cache.stats.hits),
        "misses": float(cache.stats.misses),
        "evictions": float(cache.stats.evictions),
    }


def _cc_inputs(quick: bool) -> Tuple[int, Dict[str, Any]]:
    num_nodes = 5_000 if quick else 20_000
    rng = np.random.default_rng(2031)
    degrees = rng.integers(0, 4, size=num_nodes)
    targets = rng.integers(0, num_nodes, size=int(degrees.sum()))
    sources = np.repeat(np.arange(num_nodes, dtype=np.int64), degrees)
    all_src = np.concatenate([sources, targets])  # symmetrized
    all_dst = np.concatenate([targets, sources])
    order = np.argsort(all_src, kind="stable")
    counts = np.bincount(all_src, minlength=num_nodes)
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    graph = CsrGraph(
        offsets=offsets,
        edges=all_dst[order].astype(np.int64),
        weights=np.ones(all_dst.size, dtype=np.float64),
        name="micro-cc",
    )
    return num_nodes, {"graph": graph}


def _cc_checks(labels: np.ndarray) -> Dict[str, float]:
    return {
        "label_digest": float(_perm_digest(labels)),
        "components": float(np.unique(labels).size),
    }


def _cc_run(inputs: Dict[str, Any]) -> Dict[str, float]:
    return _cc_checks(connected_components_labels(inputs["graph"]))


def _cc_reference(inputs: Dict[str, Any]) -> Dict[str, float]:
    return _cc_checks(connected_components_reference(inputs["graph"]))


MICRO_KERNELS: Tuple[MicroKernel, ...] = (
    MicroKernel("dram.replay", _dram_inputs, _dram_run, _dram_reference),
    MicroKernel("filter.unique", _filter_inputs, _filter_run, _filter_reference),
    MicroKernel("group.order", _group_inputs, _group_run, _group_reference),
    MicroKernel("coalesce.warp", _coalesce_inputs, _coalesce_warp_run),
    MicroKernel("coalesce.stream", _coalesce_inputs, _coalesce_stream_run),
    MicroKernel("cache.lru", _cache_inputs, _cache_run, _cache_reference),
    MicroKernel("cc.labels", _cc_inputs, _cc_run, _cc_reference),
    MicroKernel("locality.profile", _profile_inputs, _profile_run, _profile_reference),
    MicroKernel(
        "hierarchy.process", _hierarchy_inputs, _hierarchy_run, _hierarchy_reference
    ),
    MicroKernel("cull.best_effort", _cull_inputs, _cull_run, _cull_reference),
    MicroKernel(
        "pagerank.scatter", _scatter_inputs, _scatter_run, _scatter_reference
    ),
    MicroKernel(
        "price.small_streams",
        _small_stream_inputs,
        _small_stream_run,
        _small_stream_reference,
    ),
)

MICRO_KERNEL_NAMES: Tuple[str, ...] = tuple(k.name for k in MICRO_KERNELS)


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def _timed(body: Callable[[], Dict[str, float]]) -> Tuple[float, Dict[str, float]]:
    started = time.perf_counter()
    checks = body()
    return time.perf_counter() - started, checks


def run_micro(
    *,
    quick: bool = False,
    reps: int = DEFAULT_MICRO_REPS,
    tag: str = "micro",
    progress: Optional[Callable[[str], None]] = None,
    registry: Optional[MetricsRegistry] = None,
) -> MicroArtifact:
    """Measure every kernel and return the artifact.

    Timed repetitions are recorded into ``registry`` (default: a fresh
    one, snapshotted into the artifact) *and* the process-global
    registry's ``scu.kernel.<name>.seconds`` histograms so a running
    service surfaces them on ``/metrics``.
    """
    if reps <= 0:
        raise BenchError(f"reps must be positive, got {reps}")
    local = registry if registry is not None else MetricsRegistry()
    artifact = MicroArtifact(
        tag=tag, provenance=collect_provenance(), quick=quick
    )
    for kernel in MICRO_KERNELS:
        size, inputs = kernel.make_inputs(quick)
        metric = f"scu.kernel.{kernel.name}.seconds"
        warmup_s, checks = _timed(lambda: kernel.run(inputs))
        samples: List[float] = []
        for _ in range(reps):
            elapsed, rep_checks = _timed(lambda: kernel.run(inputs))
            if rep_checks != checks:
                raise BenchError(
                    f"{kernel.name}: nondeterministic checksums across reps"
                )
            samples.append(elapsed)
            local.histogram(metric).observe(elapsed)
            global_metrics().histogram(metric).observe(elapsed)
        wall = WallStats.from_samples(samples, warmup_s=warmup_s)
        reference_wall: Optional[WallStats] = None
        speedup: Optional[float] = None
        if kernel.reference is not None:
            ref_elapsed, ref_checks = _timed(lambda: kernel.reference(inputs))
            if ref_checks != checks:
                raise BenchError(
                    f"{kernel.name}: vectorized checksums {checks} diverge "
                    f"from reference {ref_checks}"
                )
            reference_wall = WallStats.from_samples([ref_elapsed])
            if wall.median_s > 0:
                speedup = ref_elapsed / wall.median_s
        artifact.records.append(
            MicroRecord(
                kernel=kernel.name,
                size=size,
                wall=wall,
                sim=checks,
                reference_wall=reference_wall,
                speedup=speedup,
            )
        )
        if progress is not None:
            gain = "" if speedup is None else f"  ({speedup:.1f}x vs reference)"
            progress(
                f"  {kernel.name:16s} n={size:<7d} "
                f"median {wall.median_s * 1e3:8.3f} ms{gain}"
            )
    artifact.metrics = local.flat_snapshot()
    return artifact


# ---------------------------------------------------------------------------
# Comparison (the --compare exit-2 gate)
# ---------------------------------------------------------------------------


def compare_micro_artifacts(
    baseline: MicroArtifact,
    current: MicroArtifact,
    *,
    sim_rtol: float = 0.0,
    wall_tolerance_pct: float = 50.0,
) -> CompareReport:
    """Diff two micro artifacts with the bench comparison contract:
    checksums are deterministic (exact by default, either direction);
    wall medians gate only beyond the tolerance; a vanished kernel is a
    regression."""
    report = CompareReport()
    current_map = current.record_map()
    for key, base in baseline.record_map().items():
        cur = current_map.pop(key, None)
        if cur is None:
            report.regressions.append(
                Finding(V_MISSING, base.label(), "record", None, None)
            )
            continue
        report.cells_compared += 1
        cell = base.label()
        for name in sorted(set(base.sim) | set(cur.sim)):
            base_value = base.sim.get(name)
            cur_value = cur.sim.get(name)
            if _checksum_differs(base_value, cur_value, sim_rtol):
                report.regressions.append(
                    Finding(V_SIM, cell, name, base_value, cur_value)
                )
        if wall_tolerance_pct > 0.0 and base.wall.median_s > 0.0:
            ratio = cur.wall.median_s / base.wall.median_s
            if ratio > 1.0 + wall_tolerance_pct / 100.0:
                report.regressions.append(
                    Finding(
                        V_WALL, cell, "wall.median_s",
                        base.wall.median_s, cur.wall.median_s,
                    )
                )
            elif ratio < 1.0 - wall_tolerance_pct / 100.0:
                report.improvements.append(
                    Finding(
                        V_FASTER, cell, "wall.median_s",
                        base.wall.median_s, cur.wall.median_s,
                    )
                )
    report.cells_added = len(current_map)
    return report


def _checksum_differs(
    a: Optional[float], b: Optional[float], rtol: float
) -> bool:
    if a is None or b is None:
        return True  # a checksum appearing or vanishing is drift
    if a == b:
        return False
    if rtol <= 0.0:
        return True
    scale = max(abs(a), abs(b))
    return abs(a - b) > rtol * scale
