"""A synthetic device address space.

The cost models work on *real byte addresses* so that coalescing and
row-locality effects are measured, not assumed.  The functional
simulation therefore places every logical array (CSR offsets, edge
array, frontiers, hash tables, ...) at a concrete base address through
this allocator, mirroring ``cudaMalloc``'s behaviour of handing out
aligned, non-overlapping regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import SimulationError


@dataclass
class Allocation:
    """One array placed in device memory."""

    name: str
    base: int
    size_bytes: int
    elem_bytes: int

    def addresses(self, indices: np.ndarray | None = None) -> np.ndarray:
        """Byte addresses of the given element indices (or all elements)."""
        if indices is None:
            end = self.base + self.num_elements * self.elem_bytes
            return np.arange(self.base, end, self.elem_bytes, dtype=np.int64)
        addrs = np.asarray(indices, dtype=np.int64) * self.elem_bytes
        addrs += self.base
        return addrs

    @property
    def num_elements(self) -> int:
        return self.size_bytes // self.elem_bytes


@dataclass
class AddressSpace:
    """Bump allocator over a synthetic device memory."""

    capacity_bytes: int = 4 << 30
    alignment: int = 256  # cudaMalloc alignment
    _cursor: int = 0
    _allocations: dict = field(default_factory=dict)

    def alloc(self, name: str, num_elements: int, elem_bytes: int = 4) -> Allocation:
        """Place an array of ``num_elements`` elements; returns its allocation."""
        if num_elements < 0 or elem_bytes <= 0:
            raise SimulationError(f"invalid allocation request for {name!r}")
        size = num_elements * elem_bytes
        base = -(-self._cursor // self.alignment) * self.alignment
        if base + size > self.capacity_bytes:
            raise SimulationError(
                f"address space exhausted allocating {name!r} "
                f"({size} bytes at {base}, capacity {self.capacity_bytes})"
            )
        self._cursor = base + size
        allocation = Allocation(name=name, base=base, size_bytes=size, elem_bytes=elem_bytes)
        self._allocations[name] = allocation
        return allocation

    def get(self, name: str) -> Allocation:
        if name not in self._allocations:
            raise SimulationError(f"no allocation named {name!r}")
        return self._allocations[name]

    @property
    def bytes_in_use(self) -> int:
        return self._cursor


@dataclass
class DeviceArray:
    """A logical array with both its values and its device placement.

    The functional simulation computes on ``values``; the cost models
    read ``addresses()`` so that coalescing and locality are measured on
    the addresses a real kernel would issue.
    """

    values: np.ndarray
    alloc: Allocation

    def addresses(self, indices: np.ndarray | None = None) -> np.ndarray:
        return self.alloc.addresses(indices)

    @property
    def name(self) -> str:
        return self.alloc.name

    @property
    def size(self) -> int:
        return int(self.values.size)

    def __len__(self) -> int:
        return self.size


@dataclass
class DeviceContext:
    """Allocates :class:`DeviceArray` objects in one address space.

    Names are made unique automatically (``frontier``, ``frontier.1``,
    ...) because algorithms allocate fresh frontiers every iteration.
    """

    space: AddressSpace = field(default_factory=AddressSpace)
    _counters: dict = field(default_factory=dict)

    def _unique_name(self, name: str) -> str:
        count = self._counters.get(name, 0)
        self._counters[name] = count + 1
        return name if count == 0 else f"{name}.{count}"

    def array(self, name: str, values: np.ndarray, *, elem_bytes: int = 4) -> DeviceArray:
        """Place ``values`` in device memory under (a uniquified) ``name``."""
        values = np.asarray(values)
        alloc = self.space.alloc(self._unique_name(name), values.size, elem_bytes)
        return DeviceArray(values=values, alloc=alloc)

    def bitmask(self, name: str, mask: np.ndarray) -> DeviceArray:
        """Place a boolean bitmask (stored packed, 1 bit per element)."""
        mask = np.asarray(mask, dtype=bool)
        words = max(1, -(-mask.size // 32))  # packed into 4-byte words
        alloc = self.space.alloc(self._unique_name(name), words, 4)
        return DeviceArray(values=mask, alloc=alloc)
