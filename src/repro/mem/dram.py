"""DRAM device models: 4 GB GDDR5 (GTX 980) and 4 GB LPDDR4 (Tegra X1).

Substitutes for DramSim2 (see DESIGN.md).  Graph workloads are
bandwidth-bound, so the model's first-order quantities are effective
bandwidth (peak derated by row-buffer behaviour) and energy per bit
(GPUWattch for GDDR5, the Micron power calculator for LPDDR4 — the same
sources the paper uses).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..obs import NULL_OBS, Observability
from ..obs.metrics import Update


@dataclass(frozen=True)
class DramConfig:
    """Parameters of one DRAM device."""

    name: str
    capacity_bytes: int
    peak_bandwidth_bps: float  # bytes/second
    access_latency_ns: float  # closed-row access latency
    row_hit_latency_ns: float  # open-row access latency
    energy_pj_per_bit: float  # dynamic transfer energy
    activation_energy_pj: float  # per row activation
    static_power_w: float  # background + refresh
    row_bytes: int = 2048

    def __post_init__(self) -> None:
        if self.peak_bandwidth_bps <= 0:
            raise ConfigError(f"{self.name}: bandwidth must be positive")
        if not 0 < self.row_hit_latency_ns <= self.access_latency_ns:
            raise ConfigError(f"{self.name}: implausible latencies")


#: GTX 980 board memory: 4 GB GDDR5 @ 224 GB/s (Table 3).
GDDR5 = DramConfig(
    name="GDDR5",
    capacity_bytes=4 << 30,
    peak_bandwidth_bps=224e9,
    access_latency_ns=60.0,
    row_hit_latency_ns=28.0,
    energy_pj_per_bit=14.0,
    activation_energy_pj=9000.0,
    static_power_w=6.0,
)

#: Tegra X1 memory: 4 GB LPDDR4 @ 25.6 GB/s (Table 4).
LPDDR4 = DramConfig(
    name="LPDDR4",
    capacity_bytes=4 << 30,
    peak_bandwidth_bps=25.6e9,
    access_latency_ns=75.0,
    row_hit_latency_ns=35.0,
    energy_pj_per_bit=4.5,
    activation_energy_pj=4500.0,
    static_power_w=0.35,
)


@dataclass(frozen=True)
class DramTraffic:
    """Aggregate DRAM traffic of one simulation phase."""

    accesses: int  # transactions reaching DRAM
    bytes_transferred: int
    row_hit_fraction: float = 0.5

    def __post_init__(self) -> None:
        _check_row_hit_fraction(self.row_hit_fraction)


def _check_row_hit_fraction(fraction: float) -> None:
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError(f"row_hit_fraction out of range: {fraction}")


class DramModel:
    """Time and energy for aggregate traffic on one DRAM device."""

    def __init__(self, config: DramConfig, *, obs: Observability = NULL_OBS):
        self.config = config
        self.obs = obs

    def effective_bandwidth(self, row_hit_fraction: float) -> float:
        """Peak bandwidth derated by row-buffer locality.

        Streaming (row_hit_fraction -> 1) sustains ~90 % of peak; fully
        random sector traffic (-> 0) sustains ~35 %, consistent with
        measured GDDR5/LPDDR4 behaviour under GUPS-like access patterns.
        """
        efficiency = 0.35 + 0.55 * row_hit_fraction
        return self.config.peak_bandwidth_bps * efficiency

    def transfer_time_s(self, traffic: DramTraffic) -> float:
        """Time to drain ``traffic``, bandwidth-bound with a latency floor."""
        return self.drain_time_s(
            traffic.accesses, traffic.bytes_transferred, traffic.row_hit_fraction
        )

    def drain_time_s(
        self,
        accesses: int,
        bytes_transferred: int,
        row_hit_fraction: float,
        *,
        observations: "list[Update] | None" = None,
    ) -> float:
        """:meth:`transfer_time_s` of the traffic these numbers describe,
        range check included, without building a :class:`DramTraffic`.

        ``observations``, when given, receives the counter and histogram
        updates instead of the registry (see
        :meth:`~repro.mem.hierarchy.MemoryHierarchy.process`)."""
        _check_row_hit_fraction(row_hit_fraction)
        if accesses == 0:
            return 0.0
        bandwidth_time = bytes_transferred / self.effective_bandwidth(row_hit_fraction)
        # A single access cannot beat the device latency.
        latency_floor = self.config.access_latency_ns * 1e-9
        time_s = max(bandwidth_time, latency_floor)
        if observations is not None or self.obs.metrics.enabled:
            labels = {"device": self.config.name}
            updates = (
                ("counter", "mem.dram.requests", accesses, labels),
                ("counter", "mem.dram.time_s", time_s, labels),
                ("histogram", "mem.dram.row_hit_fraction", row_hit_fraction, labels),
            )
            if observations is None:
                self.obs.metrics.record(updates)
            else:
                observations.extend(updates)
        return time_s

    def dynamic_energy_j(self, traffic: DramTraffic) -> float:
        """Transfer energy + activation energy for the row misses."""
        transfer = traffic.bytes_transferred * 8 * self.config.energy_pj_per_bit
        rows_activated = traffic.accesses * (1.0 - traffic.row_hit_fraction)
        activate = rows_activated * self.config.activation_energy_pj
        return (transfer + activate) * 1e-12

    def static_energy_j(self, elapsed_s: float) -> float:
        return self.config.static_power_w * elapsed_s
