"""Schema-versioned benchmark artifacts (``BENCH_<tag>.json``).

One :class:`BenchArtifact` is the machine-readable output of a
``repro bench`` run: per-cell records of the (algorithm x dataset x
GPU x system-mode) grid, each pairing wall-clock statistics (the
harness's real speed) with the deterministic simulated cost model
(the paper's numbers), plus a metrics-registry snapshot, a fidelity
scoreboard, and provenance.  Artifacts are the unit of longitudinal
comparison — ``repro bench --compare`` diffs two of them — so the
schema carries an explicit version and loading validates it.
"""

from __future__ import annotations

import functools
import json
import math
import platform
import statistics
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import BenchError
from ..phases import Engine, RunReport

#: Bump on any backwards-incompatible change to the artifact layout.
SCHEMA_VERSION = 1

#: Simulated metrics every record carries, in artifact order.  These are
#: deterministic outputs of the cost model: any drift between two runs
#: of the same code is a correctness change, not noise.
SIM_METRIC_NAMES: Tuple[str, ...] = (
    "sim_time_s",
    "gpu_time_s",
    "scu_time_s",
    "gpu_cycles",
    "total_energy_j",
    "dynamic_energy_j",
    "static_energy_j",
    "instructions",
    "gpu_instructions",
    "dram_bytes",
    "dram_transactions",
    "mem_transactions",
    "compaction_fraction",
)


@dataclass(frozen=True)
class WallStats:
    """Wall-clock statistics of N repetitions of one grid cell.

    ``warmup_s`` is the duration of one *discarded* first repetition:
    the warmup pays the first-call costs (dataset-generation caches,
    numpy allocator pools) that used to skew ``min``/``mean`` on small
    grids, and is recorded separately so the skew stays visible in the
    artifact.  ``None`` in artifacts written before the field existed.
    """

    reps: int
    min_s: float
    median_s: float
    mean_s: float
    iqr_s: float  # interquartile range; 0.0 when reps < 4
    warmup_s: Optional[float] = None  # discarded warmup rep, if measured

    @classmethod
    def from_samples(
        cls, samples: Sequence[float], *, warmup_s: Optional[float] = None
    ) -> "WallStats":
        if not samples:
            raise BenchError("wall statistics need at least one sample")
        ordered = sorted(samples)
        if len(ordered) >= 4:
            q1, _, q3 = statistics.quantiles(ordered, n=4)
            iqr = q3 - q1
        else:
            iqr = 0.0
        return cls(
            reps=len(ordered),
            min_s=ordered[0],
            median_s=statistics.median(ordered),
            mean_s=statistics.fmean(ordered),
            iqr_s=iqr,
            warmup_s=warmup_s,
        )


@dataclass(frozen=True)
class SimMetrics:
    """Deterministic cost-model outputs of one grid cell."""

    sim_time_s: float
    gpu_time_s: float
    scu_time_s: float
    gpu_cycles: float
    total_energy_j: float
    dynamic_energy_j: float
    static_energy_j: float
    instructions: float
    gpu_instructions: float
    dram_bytes: float
    dram_transactions: float
    mem_transactions: float
    compaction_fraction: Optional[float]  # None when the report is empty

    @classmethod
    def from_report(cls, report: RunReport, *, gpu_clock_hz: float) -> "SimMetrics":
        memory = report.memory()
        fraction = report.compaction_time_fraction()
        return cls(
            sim_time_s=report.time_s(),
            gpu_time_s=report.time_s(engine=Engine.GPU),
            scu_time_s=report.time_s(engine=Engine.SCU),
            gpu_cycles=report.time_s(engine=Engine.GPU) * gpu_clock_hz,
            total_energy_j=report.total_energy_j(),
            dynamic_energy_j=report.dynamic_energy_j(),
            static_energy_j=report.static_energy_j,
            instructions=float(report.instructions()),
            gpu_instructions=float(report.instructions(engine=Engine.GPU)),
            dram_bytes=float(report.dram_bytes()),
            dram_transactions=float(memory.dram_accesses),
            mem_transactions=float(memory.transactions),
            compaction_fraction=None if math.isnan(fraction) else fraction,
        )

    def as_dict(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in SIM_METRIC_NAMES}


@dataclass(frozen=True)
class BenchRecord:
    """One cell of the bench grid."""

    algorithm: str
    dataset: str
    gpu: str
    mode: str  # requested system mode
    effective_mode: str  # after paper Section 4.6 substitution (PR)
    wall: WallStats
    sim: SimMetrics

    @property
    def key(self) -> Tuple[str, str, str, str]:
        return (self.algorithm, self.dataset, self.gpu, self.mode)

    def label(self) -> str:
        return f"{self.algorithm}/{self.dataset}/{self.gpu}/{self.mode}"


@dataclass
class BenchArtifact:
    """A whole bench run, ready to serialize as ``BENCH_<tag>.json``."""

    tag: str
    grid: Dict[str, Any]
    provenance: Dict[str, Any]
    records: List[BenchRecord] = field(default_factory=list)
    metrics: List[Dict[str, Any]] = field(default_factory=list)
    scoreboard: Optional[Dict[str, Any]] = None
    schema_version: int = SCHEMA_VERSION

    def record_map(self) -> Dict[Tuple[str, str, str, str], BenchRecord]:
        return {record.key: record for record in self.records}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "tag": self.tag,
            "grid": dict(self.grid),
            "provenance": dict(self.provenance),
            "records": [
                {
                    "algorithm": r.algorithm,
                    "dataset": r.dataset,
                    "gpu": r.gpu,
                    "mode": r.mode,
                    "effective_mode": r.effective_mode,
                    "wall": asdict(r.wall),
                    "sim": r.sim.as_dict(),
                }
                for r in self.records
            ],
            "metrics": list(self.metrics),
            "scoreboard": self.scoreboard,
        }

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        # allow_nan=False: NaN would silently produce invalid JSON; the
        # schema represents "no value" as null instead.
        path.write_text(
            json.dumps(self.to_dict(), indent=2, allow_nan=False) + "\n"
        )
        return path

    @classmethod
    def from_dict(cls, payload: Dict[str, Any], *, source: str = "artifact") -> "BenchArtifact":
        if not isinstance(payload, dict):
            raise BenchError(f"{source}: expected a JSON object")
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise BenchError(
                f"{source}: schema version {version!r} is not supported "
                f"(this build reads version {SCHEMA_VERSION})"
            )
        for key in ("tag", "grid", "provenance", "records"):
            if key not in payload:
                raise BenchError(f"{source}: missing field {key!r}")
        records: List[BenchRecord] = []
        for index, raw in enumerate(payload["records"]):
            try:
                sim_fields = {
                    name: raw["sim"][name] for name in SIM_METRIC_NAMES
                }
                records.append(
                    BenchRecord(
                        algorithm=raw["algorithm"],
                        dataset=raw["dataset"],
                        gpu=raw["gpu"],
                        mode=raw["mode"],
                        effective_mode=raw.get("effective_mode", raw["mode"]),
                        wall=WallStats(**raw["wall"]),
                        sim=SimMetrics(**sim_fields),
                    )
                )
            except (KeyError, TypeError) as error:
                raise BenchError(
                    f"{source}: record {index} is malformed: {error!r}"
                ) from error
        return cls(
            tag=payload["tag"],
            grid=payload["grid"],
            provenance=payload["provenance"],
            records=records,
            metrics=payload.get("metrics", []),
            scoreboard=payload.get("scoreboard"),
            schema_version=version,
        )

    @classmethod
    def load(cls, path: str | Path) -> "BenchArtifact":
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError as error:
            raise BenchError(f"{path}: no such artifact") from error
        except json.JSONDecodeError as error:
            raise BenchError(f"{path}: not a valid artifact: {error}") from error
        return cls.from_dict(payload, source=str(path))


def collect_provenance() -> Dict[str, Any]:
    """Where an artifact came from: code version, interpreter, host."""
    return {
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


@functools.lru_cache(maxsize=None)
def _git_sha() -> str:
    """The checkout's HEAD commit, resolved once per process.

    Asked of the package's own directory, not the working directory, so
    a process started elsewhere still names the code it runs; and asked
    once, because every result-store write records it.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except OSError:
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def short_git_sha() -> str:
    sha = _git_sha()
    return sha[:10] if sha != "unknown" else "local"
