"""The unified run-spec API: :class:`RunRequest` and :class:`RunOutcome`.

Every way of asking this repository for a simulation — the figure
drivers' memoized ``_run``, the runner's ``cached_run``, the parallel
sweep engine's worker cells, and the ``repro serve`` HTTP service —
used to build its own ad-hoc cache key.  :class:`RunRequest` is the one
canonical description of a simulated run on a *registry dataset*, and
its :meth:`RunRequest.cache_key` is the single key derivation all of
them share, so a report computed through any entry point is a cache hit
for every other.

:class:`RunOutcome` is what ``run_algorithm`` returns: read its
``.result`` / ``.report`` / ``.system`` attributes.

Mode names are validated against the live accelerator-backend registry
(:func:`repro.backends.available_modes`) — registering a new backend
makes its mode valid here, on the CLI, and on the service wire form,
with no list to keep in sync.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, Tuple

import numpy as np

from .backends import available_modes
from .backends.modes import SystemMode
from .core.api import ScuSystem
from .errors import ExperimentError, ProtocolError
from .phases import RunReport

#: JSON field names a wire-form request may carry (the service protocol).
_REQUEST_FIELDS = ("algorithm", "dataset", "gpu", "mode", "seed", "kwargs")

#: JSON-scalar types allowed as extra run arguments on the wire.
_SCALAR_TYPES = (str, int, float, bool, type(None))


@dataclass(frozen=True)
class RunRequest:
    """One simulated (algorithm, dataset, GPU, system-mode) run spec.

    ``kwargs`` is the canonical sorted-tuple form of the extra driver
    arguments (e.g. ``source=3`` or Figure 12's
    ``enable_grouping=False``); build instances through :meth:`make`,
    which normalizes plain keyword arguments and string modes.  ``seed``
    is the dataset-generation seed (registry datasets default to 42).
    """

    algorithm: str
    dataset: str
    gpu_name: str
    mode: SystemMode
    kwargs: Tuple[Tuple[str, Any], ...] = ()
    seed: int = 42

    @classmethod
    def make(
        cls,
        algorithm: str,
        dataset: str,
        gpu_name: str,
        mode: SystemMode | str,
        *,
        seed: int = 42,
        **kwargs: Any,
    ) -> "RunRequest":
        """Normalizing constructor: accepts a mode string and raw kwargs."""
        if not isinstance(mode, SystemMode):
            try:
                mode = SystemMode(mode)
            except ValueError:
                known = ", ".join(available_modes())
                raise ExperimentError(
                    f"unknown system mode {mode!r}; known modes: {known}"
                ) from None
        return cls(
            algorithm=algorithm,
            dataset=dataset,
            gpu_name=gpu_name,
            mode=mode,
            kwargs=tuple(sorted(kwargs.items())),
            seed=seed,
        )

    def cache_key(self) -> Tuple:
        """The one canonical cache key of this run.

        Shared by the experiment-report memo, the whole-run cache, the
        parallel sweep engine, and the simulation service — priming any
        one of them makes the run a hit for all of them.
        """
        return (
            self.algorithm,
            self.dataset,
            self.gpu_name,
            self.mode,
            self.seed,
            self.kwargs,
        )

    def canonical_bytes(self) -> bytes:
        """The canonical wire encoding of this request.

        Byte-identical to what :func:`repro.serve.protocol.encode`
        produces for :meth:`to_dict` (sorted keys, compact separators,
        UTF-8) — pinned by a test — so the digest below is a pure
        function of the request's wire form.
        """
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"), allow_nan=False
        ).encode("utf-8")

    def cache_digest(self) -> str:
        """The one canonical *string* digest of this run.

        SHA-256 over :meth:`canonical_bytes`, hex-encoded.  Everything
        that needs a stable string identity for a run uses this one
        derivation: the service journal's ``cache_key`` field, the L2
        result store's filenames, and the cluster front's
        consistent-hash ring placement — so an entry written by any
        component is addressable by every other.
        """
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    def label(self) -> str:
        return f"{self.algorithm}/{self.dataset}/{self.gpu_name}/{self.mode.value}"

    # -- wire form (the ``repro serve`` JSON protocol) ---------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form; inverse of :meth:`from_dict`."""
        return {
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "gpu": self.gpu_name,
            "mode": self.mode.value,
            "seed": self.seed,
            "kwargs": dict(self.kwargs),
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "RunRequest":
        """Validate one wire-form request into a typed :class:`RunRequest`.

        Raises :class:`~repro.errors.ProtocolError` with a deterministic
        message for every malformed shape, so the service can return the
        same 400 body for the same bad input every time.
        """
        if not isinstance(payload, dict):
            raise ProtocolError("request body must be a JSON object")
        unknown = sorted(set(payload) - set(_REQUEST_FIELDS))
        if unknown:
            raise ProtocolError(f"unknown request fields: {', '.join(unknown)}")
        for name in ("algorithm", "dataset", "gpu", "mode"):
            value = payload.get(name)
            if not isinstance(value, str) or not value:
                raise ProtocolError(f"field {name!r} must be a non-empty string")
        try:
            mode = SystemMode(payload["mode"])
        except ValueError:
            known = ", ".join(available_modes())
            raise ProtocolError(
                f"unknown mode {payload['mode']!r}; known modes: {known}"
            ) from None
        seed = payload.get("seed", 42)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ProtocolError("field 'seed' must be an integer")
        raw_kwargs = payload.get("kwargs", {})
        if not isinstance(raw_kwargs, dict):
            raise ProtocolError("field 'kwargs' must be a JSON object")
        for key, value in raw_kwargs.items():
            if not isinstance(value, _SCALAR_TYPES):
                raise ProtocolError(
                    f"kwargs[{key!r}] must be a JSON scalar, "
                    f"got {type(value).__name__}"
                )
            # ``json.loads`` accepts NaN and Infinity, which strict JSON
            # (and so the canonical encoding behind cache_digest) has not.
            if isinstance(value, float) and not math.isfinite(value):
                raise ProtocolError(
                    f"kwargs[{key!r}] must be a finite number, got {value!r}"
                )
        # membership checks against the live registries (imported lazily:
        # the runner imports this module, so the reverse import must not
        # happen at module load).
        from .algorithms.runner import ALGORITHMS
        from .gpu.config import GPU_SYSTEMS
        from .graph.datasets import DATASETS

        if payload["algorithm"] not in ALGORITHMS:
            known = ", ".join(sorted(ALGORITHMS))
            raise ProtocolError(
                f"unknown algorithm {payload['algorithm']!r}; known: {known}"
            )
        if payload["dataset"] not in DATASETS:
            known = ", ".join(DATASETS)
            raise ProtocolError(
                f"unknown dataset {payload['dataset']!r}; known: {known}"
            )
        if payload["gpu"] not in GPU_SYSTEMS:
            known = ", ".join(GPU_SYSTEMS)
            raise ProtocolError(
                f"unknown gpu {payload['gpu']!r}; known: {known}"
            )
        return cls.make(
            payload["algorithm"],
            payload["dataset"],
            payload["gpu"],
            mode,
            seed=seed,
            **raw_kwargs,
        )


@dataclass(frozen=True)
class RunOutcome:
    """What one ``run_algorithm`` call produced.

    Read the named fields: ``.result`` (the algorithm's output array),
    ``.report`` (the :class:`~repro.phases.RunReport`), ``.system`` (the
    simulated :class:`~repro.core.api.ScuSystem`).
    """

    result: np.ndarray
    report: RunReport
    system: ScuSystem
