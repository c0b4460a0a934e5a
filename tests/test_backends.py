"""Tests for the accelerator-backend registry and the IRU backend.

Registry contract: one canonical mode list, typed errors for unknown
modes (ConfigError in-process, 400 at the service edge), and a
round-trip guarantee — every registered mode builds a system, runs a
tiny BFS, and serializes deterministically through the serve wire form.

A/B contract: the legacy modes (gpu, scu-basic, scu-enhanced) are
pinned against the committed bench baseline, so routing them through
the registry instead of the old ``with_scu`` boolean cannot drift a
single simulated metric.
"""

import json
import math
import threading
import urllib.error
import urllib.request
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import clear_run_cache, execute_request
from repro.algorithms.common import SystemMode
from repro.backends import (
    IRU_CONFIGS,
    AcceleratorBackend,
    BackendCapabilities,
    IrregularAccessReorderUnit,
    IruConfig,
    all_backends,
    available_modes,
    get_backend,
    register_backend,
)
from repro.bench.record import SimMetrics
from repro.core.api import build_system
from repro.errors import ConfigError, ExperimentError, ProtocolError
from repro.gpu.config import GPU_SYSTEMS
from repro.request import RunRequest
from repro.serve import ServiceConfig, SimulationService, encode, make_server
from repro.serve.protocol import run_response

BASELINE = Path(__file__).resolve().parent.parent / "benchmarks" / "baseline_quick.json"

#: The modes the repo shipped before the registry existed; their
#: simulated metrics are pinned byte-for-byte by the committed baseline.
LEGACY_MODES = ("gpu", "scu-basic", "scu-enhanced")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_available_modes_matches_enum_in_registration_order(self):
        assert available_modes() == ("gpu", "scu-basic", "scu-enhanced", "iru")
        assert set(available_modes()) == {mode.value for mode in SystemMode}

    def test_get_backend_resolves_strings_and_enums(self):
        for name in available_modes():
            backend = get_backend(name)
            assert backend.name == name
            assert backend.system_mode is SystemMode(name)
            assert get_backend(SystemMode(name)) is backend

    def test_all_backends_order_matches_available_modes(self):
        assert tuple(b.name for b in all_backends()) == available_modes()

    def test_unknown_mode_is_a_typed_config_error(self):
        with pytest.raises(ConfigError, match="unknown system mode 'warp-pool'"):
            get_backend("warp-pool")
        with pytest.raises(ConfigError, match="scu-enhanced, iru"):
            get_backend("warp-pool")

    def test_registering_a_name_the_enum_does_not_know_fails(self):
        class RogueBackend(AcceleratorBackend):
            name = "warp-pool"
            description = "not a SystemMode member"
            capabilities = BackendCapabilities()

            def describe(self):
                return self.description

        with pytest.raises(ConfigError, match="no SystemMode member"):
            register_backend(RogueBackend())
        assert "warp-pool" not in available_modes()

    def test_double_registration_fails(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_backend(get_backend("gpu"))

    def test_capability_flags(self):
        assert not get_backend("gpu").capabilities.offloads_compaction
        assert get_backend("scu-basic").capabilities.offloads_compaction
        enhanced = get_backend("scu-enhanced").capabilities
        assert enhanced.offloads_compaction
        assert enhanced.filtering and enhanced.grouping
        iru = get_backend("iru").capabilities
        assert iru.reorders_accesses
        assert not iru.offloads_compaction


# ---------------------------------------------------------------------------
# Round-trip: every mode builds, runs, and serializes deterministically
# ---------------------------------------------------------------------------


class TestEveryModeRoundTrips:
    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        clear_run_cache()
        yield
        clear_run_cache()

    @pytest.mark.parametrize("mode", ["gpu", "scu-basic", "scu-enhanced", "iru"])
    def test_request_build_run_and_wire_form(self, mode):
        request = RunRequest.make("bfs", "human", "TX1", mode)
        assert RunRequest.from_dict(request.to_dict()) == request

        system = get_backend(mode).build_system("TX1")
        assert system.backend is get_backend(mode)

        report = execute_request(request).report
        assert report.system == mode
        assert report.time_s() > 0

        wire = encode(run_response(request, report))
        clear_run_cache()
        again = execute_request(request).report
        assert encode(run_response(request, again)) == wire

    def test_iru_system_has_the_unit_attached(self):
        system = get_backend("iru").build_system("TX1")
        assert system.has_iru
        assert system.gpu.reorderer is system.iru
        assert system.scu is None

    def test_scu_systems_have_no_reorderer(self):
        for mode in LEGACY_MODES:
            system = get_backend(mode).build_system("TX1")
            assert system.gpu.reorderer is None
            assert not system.has_iru


# ---------------------------------------------------------------------------
# Unknown mode at every validation edge
# ---------------------------------------------------------------------------


class TestUnknownModeEdges:
    def test_make_raises_experiment_error_listing_known_modes(self):
        with pytest.raises(ExperimentError, match="gpu, scu-basic, scu-enhanced, iru"):
            RunRequest.make("bfs", "human", "TX1", "warp-pool")

    def test_from_dict_raises_protocol_error(self):
        payload = {
            "algorithm": "bfs",
            "dataset": "human",
            "gpu": "TX1",
            "mode": "warp-pool",
        }
        with pytest.raises(ProtocolError, match="gpu, scu-basic, scu-enhanced, iru"):
            RunRequest.from_dict(payload)

    def test_service_edge_maps_unknown_mode_to_400(self):
        service = SimulationService(ServiceConfig(port=0))
        httpd = make_server(service, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        host, port = httpd.server_address[:2]
        try:
            body = json.dumps(
                {
                    "algorithm": "bfs",
                    "dataset": "human",
                    "gpu": "TX1",
                    "mode": "warp-pool",
                }
            ).encode()
            request = urllib.request.Request(
                f"http://{host}:{port}/run",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30.0)
            assert excinfo.value.code == 400
            payload = json.loads(excinfo.value.read())
            assert payload["error"] == "bad-request"
            assert "warp-pool" in payload["message"]
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.drain(timeout_s=10.0)


# ---------------------------------------------------------------------------
# build_system takes the mode keyword alone
# ---------------------------------------------------------------------------


class TestWithScuShim:
    def test_mode_keyword_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            system = build_system("TX1", mode="scu-basic")
        assert system.backend.name == "scu-basic"


# ---------------------------------------------------------------------------
# A/B pin: legacy-mode metrics are byte-identical to the committed baseline
# ---------------------------------------------------------------------------


class TestLegacyModesPinnedToBaseline:
    def test_legacy_bfs_cells_match_committed_baseline(self):
        baseline = json.loads(BASELINE.read_text())
        cells = [
            record
            for record in baseline["records"]
            if record["algorithm"] == "bfs"
            and record["dataset"] == "human"
            and record["mode"] in LEGACY_MODES
        ]
        assert len(cells) == 2 * len(LEGACY_MODES)  # both GPUs x 3 modes
        for record in cells:
            request = RunRequest.make(
                "bfs", "human", record["gpu"], record["mode"]
            )
            report = execute_request(request).report
            sim = SimMetrics.from_report(
                report, gpu_clock_hz=GPU_SYSTEMS[record["gpu"]].clock_hz
            ).as_dict()
            for name, pinned in record["sim"].items():
                got = sim[name]
                if pinned is None or (
                    isinstance(pinned, float) and math.isnan(pinned)
                ):
                    continue
                # same tolerance as the CI bench gate: absorbs numpy
                # version noise, fails on any real cost-model change
                assert got == pytest.approx(pinned, rel=1e-6), (
                    record["gpu"],
                    record["mode"],
                    name,
                )


# ---------------------------------------------------------------------------
# IRU unit model
# ---------------------------------------------------------------------------


class TestIruConfig:
    def test_shipped_configs_cover_every_gpu(self):
        assert set(IRU_CONFIGS) == set(GPU_SYSTEMS)

    def test_validation(self):
        good = IRU_CONFIGS["TX1"]
        with pytest.raises(ConfigError, match="lanes"):
            IruConfig(name="bad", clock_hz=1e9, lanes=0, window_entries=64)
        with pytest.raises(ConfigError, match="clock"):
            IruConfig(name="bad", clock_hz=0, lanes=1, window_entries=64)
        with pytest.raises(ConfigError, match="window"):
            good.with_window(1)

    def test_area_is_an_order_of_magnitude_below_the_scu(self):
        from repro.core.config import SCU_CONFIGS

        for gpu_name, config in IRU_CONFIGS.items():
            assert config.area_mm2 < SCU_CONFIGS[gpu_name].area_mm2 / 5

    def test_area_overhead_fraction(self):
        config = IRU_CONFIGS["GTX980"]
        fraction = config.area_overhead_fraction(398.0)
        assert 0 < fraction < 0.01
        with pytest.raises(ConfigError):
            config.area_overhead_fraction(0)


class TestIruReorder:
    def unit(self, window=8):
        return IrregularAccessReorderUnit(
            config=IRU_CONFIGS["TX1"].with_window(window)
        )

    def test_reorder_sorts_within_windows_only(self):
        unit = self.unit(window=4)
        addresses = np.array([7, 3, 5, 1, 20, 18, 16, 14, 2], dtype=np.int64)
        out = unit.reorder(addresses)
        # each full window drains sorted; order across windows preserved
        assert out.tolist() == [1, 3, 5, 7, 14, 16, 18, 20, 2]

    def test_reorder_preserves_the_multiset(self):
        rng = np.random.default_rng(7)
        addresses = rng.integers(0, 1 << 20, size=1000)
        out = self.unit(window=64).reorder(addresses)
        assert sorted(out.tolist()) == sorted(addresses.tolist())

    def test_sorted_streams_bypass_the_unit(self):
        unit = self.unit()
        assert unit.intercept(np.arange(100, dtype=np.int64)) is None
        assert unit.intercept(np.array([5, 5, 5], dtype=np.int64)) is None
        assert unit.intercept(np.array([3], dtype=np.int64)) is None
        assert unit.intercept(np.array([], dtype=np.int64)) is None

    def test_irregular_streams_come_back_reordered_and_counted(self):
        unit = self.unit(window=4)
        addresses = np.array([9, 1, 8, 2], dtype=np.int64)
        reordered, count = unit.intercept(addresses)
        assert reordered.tolist() == [1, 2, 8, 9]
        assert count == 4

    def test_active_mask_is_applied_before_the_buffer(self):
        unit = self.unit(window=4)
        addresses = np.array([9, 1, 8, 2], dtype=np.int64)
        mask = np.array([True, False, True, False])
        reordered, count = unit.intercept(addresses, active_mask=mask)
        assert reordered.tolist() == [8, 9]
        assert count == 2

    def test_masked_stream_that_is_sorted_bypasses(self):
        unit = self.unit(window=4)
        addresses = np.array([1, 99, 2, 98], dtype=np.int64)
        mask = np.array([True, False, True, False])
        assert unit.intercept(addresses, active_mask=mask) is None


class TestIruCosts:
    def test_exposed_time_grows_with_elements(self):
        unit = IrregularAccessReorderUnit(config=IRU_CONFIGS["TX1"])
        assert unit.exposed_time_s(0) == 0.0
        small, large = unit.exposed_time_s(1000), unit.exposed_time_s(100000)
        assert 0 < small < large
        assert small > unit.config.op_setup_s

    def test_dynamic_energy_grows_with_elements(self):
        unit = IrregularAccessReorderUnit(config=IRU_CONFIGS["GTX980"])
        assert unit.dynamic_energy_j(0) == 0.0
        assert 0 < unit.dynamic_energy_j(1000) < unit.dynamic_energy_j(100000)

    def test_static_power_scales_with_lanes(self):
        wide = IrregularAccessReorderUnit(config=IRU_CONFIGS["GTX980"])
        narrow = IrregularAccessReorderUnit(config=IRU_CONFIGS["TX1"])
        assert narrow.static_power_w < wide.static_power_w
