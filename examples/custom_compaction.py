#!/usr/bin/env python
"""Scenario: programming the SCU for a non-graph workload.

Section 3 presents the SCU as a *programmable* unit with generic
operations — stream compaction is a universal parallel primitive, not a
graph-only trick.  This script calls four of them on the unit directly
to clean a sensor-reading stream (drop invalid samples, then replicate
each valid reading by its quality weight for a weighted histogram), and
compares the offloaded run against doing the same movement with GPU
kernels.
"""

import numpy as np

from repro.core import build_system
from repro.gpu import KernelSpec
from repro.phases import PhaseKind


def main():
    rng = np.random.default_rng(11)
    n = 1 << 18
    readings = rng.normal(loc=20.0, scale=6.0, size=n)
    readings[rng.random(n) < 0.3] = -1.0  # sensor dropouts, marked invalid
    weights = rng.integers(1, 4, size=n)

    system = build_system("TX1")
    scu = system.scu
    readings_dev = system.ctx.array("readings", readings)
    weights_dev = system.ctx.array("weights", weights)

    # Each operation returns its result array and the phase it cost.
    valid, valid_phase = scu.bitmask_constructor(readings_dev, "ge", 0.0, out="valid")
    clean, clean_phase = scu.data_compaction(readings_dev, valid, out="clean")
    clean_weights, weights_phase = scu.data_compaction(
        weights_dev, valid, out="clean_weights"
    )
    expanded, expand_phase = scu.replication_compaction(
        clean, clean_weights, out="expanded"
    )
    phases = [valid_phase, clean_phase, weights_phase, expand_phase]
    for phase in phases:
        print(f"{phase.name:40s} {phase.elements:7d} elements")
    scu_time = sum(p.time_s for p in phases)
    scu_energy = sum(p.dynamic_energy_j for p in phases)

    # Verify against plain NumPy.
    keep = readings >= 0
    assert np.array_equal(clean.values, readings[keep])
    assert expanded.size == int(weights[keep].sum())

    # The same data movement as GPU kernels, for comparison.
    gpu_time = gpu_energy = 0.0
    for name, data_array in (("readings", readings_dev), ("expanded", expanded)):
        spec = KernelSpec(
            f"gpu.compact.{name}",
            PhaseKind.COMPACTION,
            threads=data_array.size,
            instructions_per_thread=12,
            memory_efficiency=0.3,
        )
        spec.load(data_array.addresses())
        spec.store(data_array.addresses())
        report = system.gpu.run(spec)
        gpu_time += report.time_s
        gpu_energy += report.dynamic_energy_j

    print(f"\ninput samples     : {n}")
    print(f"valid samples     : {clean.size} ({100 * clean.size / n:.1f}%)")
    print(f"weighted samples  : {expanded.size}")
    print(f"\nSCU operations    : {scu_time * 1e3:7.3f} ms, {scu_energy * 1e3:7.3f} mJ")
    print(f"GPU equivalent    : {gpu_time * 1e3:7.3f} ms, {gpu_energy * 1e3:7.3f} mJ")
    print(f"energy advantage  : {gpu_energy / scu_energy:4.1f}x")


if __name__ == "__main__":
    main()
