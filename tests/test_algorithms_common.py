"""Tests for the shared algorithm machinery: culls, runner, phases."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    ALGORITHM_NAMES,
    SystemMode,
    cached_run,
    clear_run_cache,
    pick_source,
    run_algorithm,
    warp_cull,
)
from repro.algorithms.common import (
    best_effort_cull,
    best_effort_cull_reference,
    warp_cull_reference,
)
from repro.core import ops
from repro.errors import ExperimentError
from repro.graph import build_csr
from repro.graph.generators import generate_delaunay, generate_kron
from repro.mem import AddressRange
from repro.obs import make_observability
from repro.phases import Engine, PhaseKind, PhaseReport, RunReport
from repro.mem import MemoryStats


class TestWarpCull:
    def test_within_window_duplicates_dropped(self):
        ids = np.array([7, 7, 8, 7])
        keep = warp_cull(ids, window=32)
        assert list(keep) == [True, False, True, False]

    def test_across_window_duplicates_survive(self):
        ids = np.concatenate([np.array([7]), np.zeros(31, dtype=np.int64), np.array([7])])
        keep = warp_cull(ids, window=32)
        assert keep[0] and keep[-1]

    def test_empty(self):
        assert warp_cull(np.array([], dtype=np.int64)).size == 0

    @given(st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_never_drops_all_copies(self, raw):
        ids = np.asarray(raw, dtype=np.int64)
        keep = warp_cull(ids)
        assert set(ids[keep].tolist()) == set(raw)

    @given(
        st.lists(st.integers(min_value=0, max_value=40), min_size=0, max_size=300),
        st.sampled_from([1, 2, 3, 8, 32, 33, 64]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, raw, window):
        ids = np.asarray(raw, dtype=np.int64)
        got = warp_cull(ids, window=window)
        assert got.dtype == np.bool_
        assert got.tolist() == warp_cull_reference(ids, window=window).tolist()


class TestBestEffortCull:
    def test_first_copy_always_kept(self):
        ids = np.array([5, 5, 5])
        keep = best_effort_cull(ids)
        assert keep[0]

    def test_history_catches_close_duplicates(self):
        ids = np.array([5, 5])
        keep = best_effort_cull(ids, history=10, visibility=100)
        assert list(keep) == [True, False]

    def test_band_duplicates_survive(self):
        # previous copy 20 positions back: beyond history, within visibility.
        ids = np.zeros(40, dtype=np.int64)
        ids[0] = 5
        ids[20] = 5
        keep = best_effort_cull(ids, history=10, visibility=100)
        assert keep[0] and keep[20]

    def test_bitmask_catches_far_duplicates(self):
        ids = np.zeros(300, dtype=np.int64)
        ids[0] = 5
        ids[250] = 5
        keep = best_effort_cull(ids, history=10, visibility=100)
        assert keep[0] and not keep[250]

    @given(
        st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=300),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=64, max_value=512),
    )
    @settings(max_examples=50, deadline=None)
    def test_never_loses_a_value(self, raw, history, visibility):
        ids = np.asarray(raw, dtype=np.int64)
        keep = best_effort_cull(ids, history=history, visibility=visibility)
        assert set(ids[keep].tolist()) == set(raw)

    @given(
        st.lists(st.integers(min_value=0, max_value=30), min_size=0, max_size=400),
        st.integers(min_value=0, max_value=80),
        st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, raw, history, visibility):
        ids = np.asarray(raw, dtype=np.int64)
        got = best_effort_cull(ids, history=history, visibility=visibility)
        want = best_effort_cull_reference(ids, history=history, visibility=visibility)
        assert got.dtype == np.bool_
        assert got.tolist() == want.tolist()

    def test_matches_reference_at_the_default_windows(self):
        # A kron-like frontier: hub ids repeat near and far apart.
        rng = np.random.default_rng(12)
        ids = (rng.zipf(1.4, size=20_000) % 3000).astype(np.int64)
        assert best_effort_cull(ids).tolist() == best_effort_cull_reference(ids).tolist()

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_wider_history_culls_no_less(self, raw):
        ids = np.asarray(raw, dtype=np.int64)
        narrow = best_effort_cull(ids, history=4, visibility=10_000)
        wide = best_effort_cull(ids, history=64, visibility=10_000)
        assert wide.sum() <= narrow.sum()


class TestRunner:
    def test_unknown_algorithm_raises(self):
        graph = generate_kron(scale=6, edge_factor=4, seed=1)
        with pytest.raises(ExperimentError, match="unknown algorithm"):
            run_algorithm("dijkstra", graph, "TX1", SystemMode.GPU)

    def test_algorithm_names_order(self):
        assert ALGORITHM_NAMES == ("bfs", "sssp", "pagerank")

    def test_cached_run_returns_same_report(self):
        clear_run_cache()
        a = cached_run("bfs", "delaunay", "TX1", SystemMode.GPU)
        b = cached_run("bfs", "delaunay", "TX1", SystemMode.GPU)
        assert a is b
        clear_run_cache()

    def test_pick_source_is_max_degree(self):
        graph = build_csr(3, np.array([1, 1]), np.array([0, 2]))
        assert pick_source(graph) == 1

    def test_memory_scale_affects_costs(self):
        graph = generate_kron(scale=12, edge_factor=8, seed=2)
        scaled = run_algorithm("bfs", graph, "TX1", SystemMode.GPU, memory_scale=64).report
        unscaled = run_algorithm("bfs", graph, "TX1", SystemMode.GPU, memory_scale=1).report
        # A smaller effective L2 pushes the divergent lookups to DRAM.
        assert scaled.memory().dram_accesses > unscaled.memory().dram_accesses
        assert scaled.time_s() >= unscaled.time_s()


class TestRunReport:
    def make(self):
        report = RunReport(algorithm="x", system="gpu", dataset="d")
        report.add(
            PhaseReport(
                "a", Engine.GPU, PhaseKind.COMPACTION, 10, 100, 1.0, 0.5,
                MemoryStats(dram_bytes=64, dram_accesses=2),
            )
        )
        report.add(PhaseReport("b", Engine.SCU, PhaseKind.COMPACTION, 5, 5, 0.5, 0.1))
        report.add(PhaseReport("c", Engine.GPU, PhaseKind.PROCESSING, 10, 50, 0.5, 0.2))
        return report

    def test_time_filters(self):
        report = self.make()
        assert report.time_s() == pytest.approx(2.0)
        assert report.time_s(engine=Engine.GPU) == pytest.approx(1.5)
        assert report.time_s(kind=PhaseKind.COMPACTION) == pytest.approx(1.5)

    def test_compaction_fraction(self):
        assert self.make().compaction_time_fraction() == pytest.approx(0.75)

    def test_total_energy_includes_static(self):
        report = self.make()
        report.static_energy_j = 1.0
        assert report.total_energy_j() == pytest.approx(1.8)

    def test_dram_bytes(self):
        assert self.make().dram_bytes() == 64

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            PhaseReport("bad", Engine.GPU, PhaseKind.PROCESSING, 1, 1, -1.0, 0.0)

    def test_instructions_by_engine(self):
        report = self.make()
        assert report.instructions(engine=Engine.GPU) == 150
        assert report.instructions(engine=Engine.SCU) == 5


class TestExpansionGatherRanges:
    """A GPU expansion gather whose ranges are back to back is issued as
    one range: CC's first frontier is a whole CSR adjacency, and a
    one-node BFS/SSSP frontier is one run.  The report, the result and
    every metric match the explicit gather, which stays the spec, and
    the range is priced without being materialised."""

    GRAPHS = {
        "delaunay": generate_delaunay(num_points=1024, seed=5),
        # Zero-degree nodes: empty ranges inside the whole-adjacency run.
        "kron": generate_kron(scale=9, edge_factor=4, seed=6),
    }

    def _run(self, algorithm, name, mode):
        obs = make_observability()
        outcome = run_algorithm(algorithm, self.GRAPHS[name], "TX1", mode, obs=obs)
        report = outcome.report
        phases = [
            (p.name, p.engine, p.kind, p.elements, p.instructions, p.time_s.hex(),
             p.dynamic_energy_j.hex(),
             p.memory._replace(row_hit_fraction=p.memory.row_hit_fraction.hex()))
            for p in report
        ]
        totals = (report.time_s().hex(), report.static_energy_j.hex())
        return outcome.result.tobytes(), phases, totals, obs.metrics.flat_snapshot()

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("algorithm", ["bfs", "sssp", "connected_components"])
    @pytest.mark.parametrize("mode", [SystemMode.GPU, SystemMode.IRU])
    def test_same_run_as_explicit_gather(self, algorithm, name, mode, monkeypatch):
        driver = importlib.import_module(f"repro.algorithms.{algorithm}")
        walks = []
        addresses = driver.expansion_addresses

        def counted(array, indices, run_start):
            issued = addresses(array, indices, run_start)
            walks.append(isinstance(issued, AddressRange))
            return issued

        def refuse(*args, **kwargs):
            raise AssertionError("a range was materialised")

        with monkeypatch.context() as patch:
            patch.setattr(driver, "expansion_addresses", counted)
            patch.setattr(AddressRange, "__array__", refuse)
            got = self._run(algorithm, name, mode)
        assert any(walks)
        monkeypatch.setattr(ops, "back_to_back_start", lambda indexes, count: None)
        assert got == self._run(algorithm, name, mode)
