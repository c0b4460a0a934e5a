"""A stream priced once and issued in many launches folds exactly like
the same stream priced in place, which stays the spec.

``GpuDevice.price`` returns a ``StreamCost``; a ``KernelSpec`` carries it
in its stream order (``KernelSpec.priced``).  Every report field, floats
bit for bit, and every counter and histogram an observed run records must
match the kernel that names the stream itself.
"""

import dataclasses

import numpy as np
import pytest

from repro.algorithms.runner import execute_request
from repro.backends.iru import IRU_TX1, IrregularAccessReorderUnit
from repro.errors import SimulationError
from repro.gpu import TX1, AccessStream, GpuDevice, KernelSpec, atomic_stream
from repro.mem import AddressRange, AddressSpace
from repro.obs import make_observability
from repro.phases import PhaseKind
from repro.request import RunRequest

N = 3000
RNG = np.random.default_rng(41)
SPACE = AddressSpace()
WALKS = [SPACE.alloc(name, N).span() for name in ("a", "b")]
TARGETS = SPACE.alloc("targets", N // 6)
SCATTER = TARGETS.addresses(RNG.integers(0, N // 6, size=N))
MASK = RNG.random(N) < 0.6

#: Stream kinds a cost may stand for: an irregular load (the IRU
#: reorders it), an atomic scatter (the IRU bypasses it), a masked load
#: and an L2-bypassing load.
STREAMS = {
    "gather": AccessStream(SCATTER),
    "atomic": atomic_stream(SCATTER),
    "masked": AccessStream(SCATTER, active_mask=MASK),
    "bypassed": AccessStream(SCATTER, l2_bypass=True),
}


def _device(backend: str, obs=None) -> GpuDevice:
    device = GpuDevice(TX1, memory_scale=16.0)
    if obs is not None:
        device.attach_obs(obs)
    if backend == "iru":
        device.attach_reorderer(IrregularAccessReorderUnit(IRU_TX1))
    return device


def _kernel(position: int, stream) -> KernelSpec:
    """Two walks with ``stream`` (an ``AccessStream`` or a cost) at
    ``position`` among them."""
    spec = KernelSpec("k", PhaseKind.PROCESSING, threads=N, instructions_per_thread=4)
    accesses = [AccessStream(walk) for walk in WALKS]
    accesses.insert(position, stream)
    spec.accesses.extend(accesses)
    return spec


def _bits(value):
    """A report as nested plain values: every value with its type, floats
    as their exact hex.  Dataclasses (the report) and named tuples (its
    ``MemoryStats``) are walked field by field."""
    if dataclasses.is_dataclass(value):
        names = [f.name for f in dataclasses.fields(value)]
    elif isinstance(value, tuple) and hasattr(value, "_fields"):
        names = value._fields
    else:
        return type(value), value.hex() if isinstance(value, float) else value
    return type(value), {name: _bits(getattr(value, name)) for name in names}


@pytest.mark.parametrize("backend", ["gpu", "iru"])
@pytest.mark.parametrize("kind", sorted(STREAMS))
@pytest.mark.parametrize("position", [0, 1, 2])
def test_priced_stream_folds_like_inline(backend, kind, position):
    inline_obs, priced_obs = make_observability(), make_observability()
    inline = _device(backend, inline_obs)
    priced = _device(backend, priced_obs)
    cost = priced.price(STREAMS[kind])
    want = _bits(inline.run(_kernel(position, STREAMS[kind])))
    # The cost is reusable: every launch that issues it folds the same.
    for _ in range(3):
        assert _bits(priced.run(_kernel(position, cost))) == want
    for _ in range(2):
        inline.run(_kernel(position, STREAMS[kind]))
    assert priced_obs.metrics.flat_snapshot() == inline_obs.metrics.flat_snapshot()


def test_unobserved_device_prices_alike():
    observed = _device("gpu", make_observability()).price(STREAMS["atomic"])
    plain = _device("gpu").price(STREAMS["atomic"])
    assert plain.observations == ()
    assert observed.observations
    assert _bits(plain.memory) == _bits(observed.memory)
    assert plain.dram_s.hex() == observed.dram_s.hex()


def test_iru_elements_carried_by_cost():
    cost = _device("iru").price(STREAMS["gather"])
    assert cost.iru_elements == N
    assert _device("iru").price(STREAMS["atomic"]).iru_elements == 0


def test_kernel_shape_counts_priced_streams():
    device = _device("gpu")
    spec = _kernel(1, device.price(STREAMS["atomic"]))
    assert spec.atomic_count == N
    assert spec.streams[1] is STREAMS["atomic"]
    assert spec.trace_args() == _kernel(1, STREAMS["atomic"]).trace_args()


@pytest.mark.parametrize("backend", ["gpu", "iru"])
def test_atomic_range_runs_like_its_addresses(backend):
    """An atomic stream may be a range: it counts its addresses, not the
    range's three fields, and the run matches the one that names the
    materialised addresses, report bits, trace args and metrics."""
    walk = AddressRange(TARGETS.base + 4, 500, 4)
    runs = []
    for addresses in (walk, np.asarray(walk)):
        obs = make_observability()
        spec = _kernel(1, AccessStream(addresses, is_store=True, is_atomic=True))
        report = _device(backend, obs).run(spec)
        runs.append((spec.atomic_count, spec.trace_args(), _bits(report),
                     obs.metrics.flat_snapshot()))
    assert runs[0][0] == walk.count
    assert runs[0][1]["atomics"] == walk.count
    assert runs[0] == runs[1]


def test_cost_from_another_device_rejected():
    cost = _device("gpu").price(STREAMS["atomic"])
    with pytest.raises(SimulationError, match="another device"):
        _device("gpu").run(_kernel(0, cost))


@pytest.mark.parametrize("dataset", ["delaunay", "kron"])
@pytest.mark.parametrize("mode", ["gpu", "scu-basic", "iru"])
def test_pagerank_counters_match_report(dataset, mode):
    """The hierarchy's counters add up to the report's phases, although
    the rank-update scatter is priced once and issued every iteration."""
    obs = make_observability()
    report = execute_request(
        RunRequest.make("pagerank", dataset, "TX1", mode), obs=obs
    ).report
    memory = report.memory()
    counters = {
        entry["metric"]: entry["value"]
        for entry in obs.metrics.flat_snapshot()
        if entry["kind"] == "counter" and not entry["labels"]
    }
    assert counters["mem.l2.transactions"] == memory.transactions
    assert counters["mem.accesses"] == memory.accesses
    assert counters["mem.dram.bytes"] == memory.dram_bytes
    updates = sum(phase.name == "pr.rank_update" for phase in report.phases)
    assert updates > 1
