"""Host-speed calibration: a fixed kernel timed between measured operations.

On a shared machine the host's speed drifts by a third or more, in
states that last tens of seconds, so a window of a few tens of seconds
often sits entirely in a fast or a slow state.  The sweeps' request
times follow that drift closely: over 20 s windows, their median moved
with the median time of this kernel at a correlation of 0.92-0.97 (see
``RATIONALE.md``).  So the benchmark times slices of this kernel next to
the operations it measures, outside their timing, and reports timings
in *reference seconds*::

    reference seconds = host seconds * REFERENCE_S / median slice time

that is, what the operation would have taken with the host at the speed
at which one slice takes ``REFERENCE_S``.  The median is over the slices
of one window: after every request of a sweep, after each set-up, and
around the serve workload's open-loop window.  The kernel and its inputs
are the benchmark's own and fixed: they depend on neither ``--seed`` nor
the program under test, so a change to the program cannot move them.
It is numpy work of the kinds the simulator does most (``np.unique`` on
arrays of tens of thousands of line ids, and many calls on arrays of a
few hundred), which tracked the sweeps better than a pure-Python loop.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: Median time of one slice on the reference host (a 2-vCPU Intel Xeon
#: virtual machine at 2.0 GHz, numpy 2), in a quiet state.  Any fixed
#: value would do; this one keeps reference seconds near host seconds.
REFERENCE_S = 0.027

#: Slices timed right after set-up, to scale ``setup_s``.
SETUP_SLICES = 8

_LARGE = 20_000
_SMALL = 500


class Calibration:
    """Times slices of the fixed kernel."""

    def __init__(self) -> None:
        rng = np.random.default_rng(2019)
        self._large = [rng.integers(0, 1 << 22, _LARGE) for _ in range(6)]
        self._small = [rng.integers(0, 1 << 22, _SMALL) for _ in range(16)]

    def _kernel(self) -> int:
        total = 0
        for array in self._large:
            total += np.unique(array >> 5).size
        for _ in range(5):
            for array in self._small:
                total += np.unique(array >> 5).size + int(np.cumsum(array)[-1] & 1)
        return total

    def slice(self) -> float:
        """Run one slice; returns its duration in host seconds."""
        started = time.perf_counter()
        self._kernel()
        return time.perf_counter() - started


def factor(samples: List[float]) -> float:
    """Reference seconds per host second, from a window's slice times."""
    return REFERENCE_S / statistics.median(samples)
