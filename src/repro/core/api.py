"""The "simple API" through which applications use the accelerators.

:class:`ScuSystem` bundles a GPU device model, its memory hierarchy, a
device context (address space), and — when present — the attached
accelerator unit(s).  ``build_system("TX1")`` gives the paper's
low-power system with the SCU; ``build_system("GTX980", mode="gpu")``
gives the GPU-only baseline; ``build_system("TX1", mode="iru")`` swaps
the SCU for the follow-on reorder unit.

Which unit gets attached — and any device adjustments it needs — is
decided by the resolved :class:`~repro.backends.base.AcceleratorBackend`,
not by boolean flags here; see :mod:`repro.backends`.

The method names mirror the pseudo-code of Algorithms 1-5
(``accessExpansionCompactionSCU`` et al.) so the algorithm
implementations read like the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import ConfigError
from ..gpu.config import GpuConfig
from ..gpu.device import GpuDevice
from ..mem.address_space import DeviceContext
from ..obs import NULL_OBS, Observability
from .config import ScuConfig
from .unit import StreamCompactionUnit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..backends.base import AcceleratorBackend
    from ..backends.iru import IrregularAccessReorderUnit
    from ..backends.modes import SystemMode


@dataclass
class ScuSystem:
    """A GPU system, optionally extended with an accelerator unit."""

    gpu: GpuDevice
    ctx: DeviceContext
    scu: StreamCompactionUnit | None = None
    #: the tracer/metrics bundle every layer of this system reports to;
    #: NULL_OBS (all no-ops) unless one was injected via ``build_system``.
    obs: Observability = NULL_OBS
    #: the reorder unit, when built with ``mode="iru"``.
    iru: "IrregularAccessReorderUnit | None" = None
    #: the backend that built this system (None for hand-assembled ones).
    backend: "AcceleratorBackend | None" = field(default=None, repr=False)

    @property
    def has_scu(self) -> bool:
        return self.scu is not None

    @property
    def has_iru(self) -> bool:
        return self.iru is not None

    @property
    def config(self) -> GpuConfig:
        return self.gpu.config

    def require_scu(self) -> StreamCompactionUnit:
        if self.scu is None:
            raise ConfigError(
                f"system {self.gpu.config.name} was built without an SCU"
            )
        return self.scu


#: Ratio between the paper's dataset sizes and this reproduction's
#: generated analogs (e.g. ca: 710 k vs 36 k nodes).  Experiments build
#: systems with ``memory_scale`` set to this value so that working-set
#: to cache-capacity ratios — which decide whether divergent node-state
#: lookups hit L2 or DRAM, the paper's central inefficiency — match the
#: paper's regime.  Both the L2 (for hit estimation) and the SCU hash
#: tables (Table 2 sizes were chosen against the real graphs) scale
#: together.  Unit tests use 1.0 (true hardware sizes).
PAPER_SCALE = 16.0


def build_system(
    gpu_name: str,
    *,
    mode: "SystemMode | str" = "scu-enhanced",
    scu_config: ScuConfig | None = None,
    memory_scale: float = 1.0,
    obs: Observability | None = None,
) -> ScuSystem:
    """Construct one of the paper's systems by GPU name ("GTX980" / "TX1").

    ``mode`` names the accelerator backend to attach (any string from
    :func:`repro.backends.available_modes`, or a
    :class:`~repro.backends.modes.SystemMode` member).  The default,
    ``"scu-enhanced"``, builds the paper's full system.

    ``memory_scale`` divides the modeled L2 capacity and the SCU hash
    sizes to match scaled-down datasets (see :data:`PAPER_SCALE`).
    ``obs`` injects a tracer/metrics bundle into every layer (GPU device,
    memory hierarchy, accelerator); observation is purely passive and
    never changes a simulated number.
    """
    from ..backends import get_backend  # runtime import: backends build on core

    return get_backend(mode).build_system(
        gpu_name,
        scu_config=scu_config,
        memory_scale=memory_scale,
        obs=obs,
    )
