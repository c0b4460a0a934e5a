"""Kernel cost specification.

Algorithms describe each kernel launch as a :class:`KernelSpec`: how
many threads ran, how many instructions each executed, and — crucially —
the *actual byte addresses* every global access stream touched.  The GPU
device model turns those into coalesced transactions, cache traffic,
time and energy.  This is the contract that lets a functional NumPy
simulation drive a hardware cost model.  An in-order walk is passed as
its :class:`~repro.mem.address_space.AddressRange`; the device prices it
without building the address array, and an atomic walk counts its
``count`` addresses.  Every stream a launch names is an
:class:`AccessStream`, a named tuple.

A stream that is the same in every launch of a loop (PageRank's
rank-update scatter) can be priced once with
:meth:`~repro.gpu.device.GpuDevice.price` and issued in each launch as
that :class:`StreamCost` (:meth:`KernelSpec.priced`); the device folds
it exactly as if it priced the stream in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ..errors import SimulationError
from ..mem.address_space import AddressRange
from ..mem.hierarchy import MemoryStats
from ..obs.metrics import Update
from ..phases import PhaseKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .device import GpuDevice


def _stream(addresses) -> "np.ndarray | AddressRange":
    if isinstance(addresses, AddressRange):
        return addresses
    return np.asarray(addresses, dtype=np.int64)


def _length(addresses: "np.ndarray | AddressRange") -> int:
    """Accesses in a stream: a range counts its addresses, not its fields."""
    if isinstance(addresses, AddressRange):
        return addresses.count
    return addresses.size


class AccessStream(NamedTuple):
    """One global-memory access pattern issued by a kernel.

    Immutable; a named tuple because every stream a launch names is one.
    """

    #: byte address per thread/element, thread order (or an in-order walk)
    addresses: "np.ndarray | AddressRange"
    is_store: bool = False
    is_atomic: bool = False
    l2_bypass: bool = False  # streaming data not worth caching
    active_mask: np.ndarray | None = None


def atomic_stream(addresses: np.ndarray) -> AccessStream:
    """Atomic read-modify-write on the given addresses."""
    return AccessStream(
        addresses=np.asarray(addresses, dtype=np.int64),
        is_store=True,
        is_atomic=True,
    )


class StreamCost(NamedTuple):
    """One access stream as :meth:`GpuDevice.price` priced it.

    Everything a kernel launch folds for the stream: its memory
    statistics, DRAM drain time, the elements an IRU reordered, and the
    counter and histogram updates pricing it makes, which the device
    records each time it folds the cost.  Valid on ``device`` only.
    Immutable; a named tuple because every stream a launch names is
    priced into one, which a frozen dataclass makes measurably dearer.
    """

    stream: AccessStream
    memory: MemoryStats
    dram_s: float
    iru_elements: int
    observations: tuple[Update, ...]
    device: "GpuDevice"


@dataclass
class KernelSpec:
    """Cost description of one kernel launch."""

    name: str
    kind: PhaseKind
    threads: int
    instructions_per_thread: float = 0.0
    extra_instructions: int = 0  # e.g. scan/reduction tree overhead
    #: Fraction of peak memory throughput this kernel sustains.  Scan-
    #: based stream compaction on GPUs reaches well under peak because
    #: of work-distribution synchronization and multi-phase passes
    #: (Billeter et al. HPG'09; Merrill's reported traversal rates);
    #: algorithms set this below 1.0 for their compaction kernels.
    memory_efficiency: float = 1.0
    #: additional fixed overhead (extra launches, host synchronization)
    extra_overhead_s: float = 0.0
    #: streams in issue order; a :class:`StreamCost` is one priced earlier
    accesses: list["AccessStream | StreamCost"] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.threads < 0:
            raise SimulationError(f"kernel {self.name}: negative thread count")
        if self.instructions_per_thread < 0 or self.extra_instructions < 0:
            raise SimulationError(f"kernel {self.name}: negative instruction count")
        if not 0.0 < self.memory_efficiency <= 1.0:
            raise SimulationError(
                f"kernel {self.name}: memory_efficiency must be in (0, 1]"
            )

    # -- builders ------------------------------------------------------------

    def load(
        self,
        addresses: "np.ndarray | AddressRange",
        *,
        l2_bypass: bool = False,
        active_mask: np.ndarray | None = None,
    ) -> "KernelSpec":
        self.accesses.append(
            AccessStream(
                addresses=_stream(addresses),
                l2_bypass=l2_bypass,
                active_mask=active_mask,
            )
        )
        return self

    def store(
        self,
        addresses: "np.ndarray | AddressRange",
        *,
        l2_bypass: bool = False,
        active_mask: np.ndarray | None = None,
    ) -> "KernelSpec":
        self.accesses.append(
            AccessStream(
                addresses=_stream(addresses),
                is_store=True,
                l2_bypass=l2_bypass,
                active_mask=active_mask,
            )
        )
        return self

    def atomic(self, addresses: np.ndarray) -> "KernelSpec":
        """Atomic read-modify-write on the given addresses."""
        self.accesses.append(atomic_stream(addresses))
        return self

    def priced(self, cost: StreamCost) -> "KernelSpec":
        """Issue a stream already priced on the device that runs this kernel."""
        self.accesses.append(cost)
        return self

    # -- observability --------------------------------------------------------

    def trace_args(self) -> dict:
        """Launch-shape summary attached to this kernel's trace span."""
        streams = self.streams
        return {
            "threads": self.threads,
            "instructions": self.total_instructions,
            "streams": len(streams),
            "loads": sum(1 for s in streams if not s.is_store),
            "stores": sum(1 for s in streams if s.is_store),
            "atomics": self.atomic_count,
            "kind": self.kind.value,
        }

    # -- totals ---------------------------------------------------------------

    @property
    def streams(self) -> list[AccessStream]:
        """Every access stream in issue order, priced ones included."""
        return [
            access.stream if isinstance(access, StreamCost) else access
            for access in self.accesses
        ]

    @property
    def total_instructions(self) -> int:
        return int(round(self.threads * self.instructions_per_thread)) + self.extra_instructions

    @property
    def atomic_count(self) -> int:
        return sum(
            _length(stream.addresses) for stream in self.streams if stream.is_atomic
        )
