"""A synthetic device address space.

The cost models work on *real byte addresses* so that coalescing and
row-locality effects are measured, not assumed.  The functional
simulation therefore places every logical array (CSR offsets, edge
array, frontiers, hash tables, ...) at a concrete base address through
this allocator, mirroring ``cudaMalloc``'s behaviour of handing out
aligned, non-overlapping regions.

A walk over a contiguous run of elements — a whole frontier, an output
vector, a CSR prefix — is described by an :class:`AddressRange`
(``base``, ``count``, ``stride``) from ``span()`` rather than an array of
its addresses: the coalescers and the L2/DRAM model price such a walk
in closed form.  Gathers, hash probes and anything else indexed go
through ``addresses(indices)`` as explicit ``int64`` arrays.  Every walk
a kernel names builds a range, so :class:`AddressRange` is a
``__slots__`` class rather than a dataclass: immutable, cheap to build,
and not a sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import SimulationError


class AddressRange:
    """The addresses ``base, base + stride, ...``: ``count`` of them.

    A non-decreasing address stream in three numbers.  ``np.asarray``
    materialises it as the ``int64`` array it stands for, which is what
    every consumer without a closed form for it sees.

    Immutable, and deliberately not a sequence (no ``len``, iteration or
    equality with a plain tuple): a stream is its addresses, and a
    range must never pass for the three numbers that describe it.  A
    ``__slots__`` class because every in-order walk a kernel names
    builds one.
    """

    __slots__ = ("base", "count", "stride")

    def __init__(self, base: int, count: int, stride: int) -> None:
        # Python ints: counts priced from a range feed reports exactly
        # like the explicit kernels' ``int`` counts.
        if type(base) is not int:
            base = int(base)
        if type(count) is not int:
            count = int(count)
        if type(stride) is not int:
            stride = int(stride)
        if count < 0 or stride < 0:
            raise SimulationError(
                f"address range needs a non-negative count and stride, "
                f"got count={count}, stride={stride}"
            )
        _set_base(self, base)
        _set_count(self, count)
        _set_stride(self, stride)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"AddressRange is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"AddressRange is immutable: cannot delete {name!r}")

    def __eq__(self, other) -> bool:
        if type(other) is not AddressRange:
            return NotImplemented
        return (self.base, self.count, self.stride) == (other.base, other.count, other.stride)

    def __hash__(self) -> int:
        return hash((self.base, self.count, self.stride))

    def __repr__(self) -> str:
        return f"AddressRange(base={self.base}, count={self.count}, stride={self.stride})"

    def __reduce__(self):
        return AddressRange, (self.base, self.count, self.stride)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        addrs = np.arange(self.count, dtype=np.int64)
        addrs *= self.stride
        addrs += self.base
        return addrs if dtype is None else addrs.astype(dtype, copy=False)


# The slots' own setters: ``__init__`` writes through them, past the
# ``__setattr__`` that keeps a built range immutable.
_set_base = AddressRange.base.__set__
_set_count = AddressRange.count.__set__
_set_stride = AddressRange.stride.__set__


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
            return np.asarray(self.span())
        addrs = np.asarray(indices, dtype=np.int64) * self.elem_bytes
        addrs += self.base
        return addrs

    def span(self, start: int = 0, count: int | None = None) -> AddressRange:
        """The in-order walk over ``count`` elements from ``start``
        (default: to the end of the allocation)."""
        if count is None:
            count = self.num_elements - start
        if start < 0 or count < 0 or start + count > self.num_elements:
            raise SimulationError(
                f"span [{start}, {start + count}) is outside {self.name!r} "
                f"({self.num_elements} elements)"
            )
        return AddressRange(
            self.base + start * self.elem_bytes, count, self.elem_bytes
        )

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
    read ``span()`` (in-order walks) and ``addresses(indices)`` (gathers)
    so that coalescing and locality are measured on the addresses a real
    kernel would issue.
    """

    values: np.ndarray
    alloc: Allocation

    def addresses(self, indices: np.ndarray | None = None) -> np.ndarray:
        return self.alloc.addresses(indices)

    def span(self, start: int = 0, count: int | None = None) -> AddressRange:
        """The in-order walk over the placed elements (see
        :meth:`Allocation.span`); a bitmask's elements are its packed words."""
        return self.alloc.span(start, count)

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
