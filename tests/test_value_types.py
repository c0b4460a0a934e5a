"""The value types a priced stream builds are immutable.

Pricing one stream builds an ``AddressRange`` (an in-order walk), an
``AccessStream`` or ``ScuStream``, a ``CoalesceResult`` (with a
``SectorWalk`` for a walk), a ``LocalityProfile`` and a ``MemoryStats``.
Each rejects attribute assignment.  ``AddressRange`` keeps its checks:
numpy ints become Python ints, a negative count or stride is refused,
and it is not a sequence, so it never passes for the three numbers that
describe it.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.core.pipeline import ScuStream
from repro.errors import SimulationError
from repro.gpu import AccessStream
from repro.mem import (
    AddressRange,
    CoalesceResult,
    LocalityProfile,
    MemoryStats,
    SectorWalk,
    coalesce_warp,
    profile_lines,
)

WALK = AddressRange(64, 100, 4)
VALUES = {
    "AddressRange": WALK,
    "AccessStream": AccessStream(np.arange(8, dtype=np.int64) * 4, is_atomic=True),
    "ScuStream": ScuStream("data", WALK),
    "SectorWalk": coalesce_warp(WALK).sectors,
    "CoalesceResult": coalesce_warp(np.arange(8, dtype=np.int64) * 4),
    "LocalityProfile": profile_lines(np.arange(8, dtype=np.int64)),
    "MemoryStats": MemoryStats(8, 2, 1, 1, 32, 0.5),
}


def test_values_are_the_types_named():
    for name, value in VALUES.items():
        assert type(value).__name__ == name
    assert isinstance(VALUES["SectorWalk"], SectorWalk)
    assert isinstance(VALUES["CoalesceResult"], CoalesceResult)
    assert isinstance(VALUES["LocalityProfile"], LocalityProfile)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_rejects_attribute_assignment(name):
    value = VALUES[name]
    field = {"AddressRange": "base", "AccessStream": "addresses", "ScuStream": "role",
             "SectorWalk": "first", "CoalesceResult": "transactions",
             "LocalityProfile": "unique_lines", "MemoryStats": "dram_bytes"}[name]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        value.unknown = 0
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is before


class TestAddressRange:
    def test_converts_numpy_ints(self):
        walk = AddressRange(np.int64(96), np.uint32(40), np.int16(4))
        assert [type(v) for v in (walk.base, walk.count, walk.stride)] == [int] * 3
        assert walk == AddressRange(96, 40, 4)
        assert hash(walk) == hash(AddressRange(96, 40, 4))

    @pytest.mark.parametrize("count,stride", [(-1, 4), (4, -4), (np.int64(-2), 4)])
    def test_rejects_negative_count_or_stride(self, count, stride):
        with pytest.raises(SimulationError, match="non-negative count and stride"):
            AddressRange(0, count, stride)

    def test_is_not_a_sequence(self):
        with pytest.raises(TypeError):
            len(WALK)
        with pytest.raises(TypeError):
            iter(WALK)
        with pytest.raises(TypeError):
            WALK[0]
        assert WALK != (64, 100, 4)
        assert not isinstance(WALK, tuple)
        assert np.asarray(WALK).shape == (100,)

    def test_repr_copy_and_pickle(self):
        assert repr(WALK) == "AddressRange(base=64, count=100, stride=4)"
        for twin in (copy.copy(WALK), copy.deepcopy(WALK), pickle.loads(pickle.dumps(WALK))):
            assert type(twin) is AddressRange and twin == WALK
