"""Tests for the unified run API (repro.request).

The contract under test: there is exactly ONE cache-key derivation in
the codebase — :meth:`RunRequest.cache_digest` — and the experiment memo,
the run cache, the parallel sweep cells, and the service all agree on
it byte for byte.
"""

import numpy as np
import pytest

from repro import RunOutcome, RunRequest, build_system, run_algorithm
from repro.algorithms import execute_request
from repro.algorithms.common import SystemMode
from repro.errors import ExperimentError, ProtocolError
from repro.graph.datasets import load_dataset
from repro.harness import experiment_key
from repro.harness.parallel import SweepCell


class TestRunRequestConstruction:
    def test_make_normalizes_string_mode(self):
        request = RunRequest.make("bfs", "human", "TX1", "scu-enhanced")
        assert request.mode is SystemMode.SCU_ENHANCED

    def test_make_rejects_unknown_mode(self):
        with pytest.raises(ExperimentError, match="unknown system mode"):
            RunRequest.make("bfs", "human", "TX1", "warp-speed")

    def test_make_sorts_kwargs(self):
        a = RunRequest.make("bfs", "human", "TX1", SystemMode.GPU, source=3)
        b = RunRequest.make("bfs", "human", "TX1", SystemMode.GPU, **{"source": 3})
        assert a == b
        assert a.kwargs == (("source", 3),)

    def test_requests_are_hashable_and_frozen(self):
        request = RunRequest.make("bfs", "human", "TX1", SystemMode.GPU)
        assert hash(request) == hash(RunRequest.make("bfs", "human", "TX1", SystemMode.GPU))
        with pytest.raises(AttributeError):
            request.algorithm = "sssp"


class TestCacheKeyUnification:
    """Every caching layer derives its key from the same place."""

    def test_experiment_key_is_the_request_key(self):
        assert experiment_key("bfs", "human", "TX1", SystemMode.GPU) == (
            RunRequest.make("bfs", "human", "TX1", SystemMode.GPU).cache_digest()
        )

    def test_experiment_key_with_kwargs(self):
        assert experiment_key(
            "bfs", "kron", "TX1", SystemMode.SCU_ENHANCED, enable_grouping=False
        ) == RunRequest.make(
            "bfs", "kron", "TX1", SystemMode.SCU_ENHANCED, enable_grouping=False
        ).cache_digest()

    def test_sweep_cell_key_is_the_request_key(self):
        cell = SweepCell(
            algorithm="sssp",
            dataset="road",
            gpu="GTX980",
            mode=SystemMode.SCU_BASIC,
            kwargs=(("source", 5),),
        )
        assert cell.key == RunRequest.make(
            "sssp", "road", "GTX980", SystemMode.SCU_BASIC, source=5
        ).cache_digest()

    def test_key_includes_seed(self):
        base = RunRequest.make("bfs", "human", "TX1", SystemMode.GPU)
        other = RunRequest.make("bfs", "human", "TX1", SystemMode.GPU, seed=7)
        assert base.cache_digest() != other.cache_digest()

    def test_equal_numbers_of_other_types_are_other_runs(self):
        # Python has 1 == 1.0 == True; their wire forms, and so the
        # runs' results, differ.
        digests = {
            RunRequest.make(
                "bfs", "human", "TX1", SystemMode.GPU, source=value
            ).cache_digest()
            for value in (1, 1.0, True)
        }
        assert len(digests) == 3


class TestWireFormat:
    def test_round_trip(self):
        request = RunRequest.make(
            "bfs", "human", "TX1", SystemMode.SCU_ENHANCED, seed=7, source=0
        )
        assert RunRequest.from_dict(request.to_dict()) == request

    def test_defaults(self):
        request = RunRequest.from_dict(
            {"algorithm": "bfs", "dataset": "human", "gpu": "TX1", "mode": "gpu"}
        )
        assert request.seed == 42
        assert request.kwargs == ()

    @pytest.mark.parametrize(
        "payload, match",
        [
            ([], "must be a JSON object"),
            ({"algorithm": "bfs"}, "must be a non-empty string"),
            (
                {"algorithm": "bfs", "dataset": "human", "gpu": "TX1"},
                "must be a non-empty string",
            ),
            (
                {
                    "algorithm": "bfs",
                    "dataset": "human",
                    "gpu": "TX1",
                    "mode": "gpu",
                    "surprise": 1,
                },
                "unknown request fields",
            ),
            (
                {"algorithm": "zork", "dataset": "human", "gpu": "TX1", "mode": "gpu"},
                "unknown algorithm",
            ),
            (
                {"algorithm": "bfs", "dataset": "zork", "gpu": "TX1", "mode": "gpu"},
                "unknown dataset",
            ),
            (
                {"algorithm": "bfs", "dataset": "human", "gpu": "Z80", "mode": "gpu"},
                "unknown gpu",
            ),
            (
                {"algorithm": "bfs", "dataset": "human", "gpu": "TX1", "mode": "zork"},
                "unknown mode",
            ),
            (
                {
                    "algorithm": "bfs",
                    "dataset": "human",
                    "gpu": "TX1",
                    "mode": "gpu",
                    "seed": True,
                },
                "must be an integer",
            ),
            (
                {
                    "algorithm": "bfs",
                    "dataset": "human",
                    "gpu": "TX1",
                    "mode": "gpu",
                    "kwargs": {"source": [1]},
                },
                "must be a JSON scalar",
            ),
            *(
                (
                    {
                        "algorithm": "bfs",
                        "dataset": "human",
                        "gpu": "TX1",
                        "mode": "gpu",
                        "kwargs": {"source": value},
                    },
                    "must be a finite number",
                )
                for value in (float("nan"), float("inf"), float("-inf"))
            ),
        ],
    )
    def test_from_dict_rejects_bad_payloads(self, payload, match):
        with pytest.raises(ProtocolError, match=match):
            RunRequest.from_dict(payload)


class TestRunOutcome:
    def test_attribute_access(self):
        outcome = execute_request(RunRequest.make("bfs", "human", "TX1", SystemMode.GPU))
        assert isinstance(outcome, RunOutcome)
        assert outcome.system.has_scu is False

    def test_execute_request_matches_run_algorithm(self):
        request = RunRequest.make("bfs", "human", "TX1", SystemMode.SCU_ENHANCED)
        via_request = execute_request(request)
        graph = load_dataset("human", seed=42)
        direct = run_algorithm("bfs", graph, "TX1", SystemMode.SCU_ENHANCED)
        assert np.array_equal(via_request.result, direct.result)
        assert via_request.report.time_s() == direct.report.time_s()
        assert (
            via_request.report.total_energy_j() == direct.report.total_energy_j()
        )


class TestMemoryScaleConstruction:
    """build_system no longer mutates the hierarchy post-construction."""

    def test_scaled_capacity_set_at_construction(self):
        plain = build_system("TX1", mode="gpu")
        scaled = build_system("TX1", mode="gpu", memory_scale=16.0)
        expected = int(plain.gpu.config.l2_bytes / 16.0)
        assert scaled.gpu.hierarchy.l2_capacity_bytes == expected
        assert scaled.gpu.memory_scale == 16.0

    def test_unscaled_is_exact_hardware_size(self):
        system = build_system("GTX980", mode="gpu")
        assert system.gpu.hierarchy.l2_capacity_bytes == system.gpu.config.l2_bytes
