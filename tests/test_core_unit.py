"""Integration tests of the StreamCompactionUnit cost-model wrapper."""

import numpy as np
import pytest

from repro.core import build_system, ops
from repro.errors import ConfigError, OperationError
from repro.graph.generators import generate_delaunay, generate_kron
from repro.mem.address_space import DeviceArray
from repro.obs import make_observability
from repro.phases import Engine, PhaseKind


@pytest.fixture
def system():
    return build_system("TX1")


def place(system, name, values):
    return system.ctx.array(name, np.asarray(values))


class TestBuildSystem:
    def test_scu_attached_by_default(self, system):
        assert system.has_scu
        assert system.require_scu() is system.scu

    def test_without_scu(self):
        baseline = build_system("GTX980", mode="gpu")
        assert not baseline.has_scu
        with pytest.raises(ConfigError):
            baseline.require_scu()

    def test_unknown_gpu(self):
        with pytest.raises(ConfigError, match="unknown GPU"):
            build_system("RTX5090")

    def test_scu_shares_gpu_hierarchy(self, system):
        assert system.scu.hierarchy is system.gpu.hierarchy


class TestOperationsThroughUnit:
    def test_bitmask_constructor(self, system):
        data = place(system, "d", [1, 5, 3, 7])
        mask, report = system.scu.bitmask_constructor(data, "ge", 5)
        assert list(mask.values) == [False, True, False, True]
        assert report.engine is Engine.SCU
        assert report.kind is PhaseKind.COMPACTION
        assert report.elements == 4
        assert report.time_s > 0
        assert report.dynamic_energy_j > 0

    def test_data_compaction(self, system):
        data = place(system, "d", [10, 20, 30])
        mask, _ = system.scu.bitmask_constructor(data, "ne", 20)
        out, report = system.scu.data_compaction(data, mask)
        assert list(out.values) == [10, 30]
        assert report.memory.transactions > 0

    def test_access_compaction(self, system):
        data = place(system, "d", np.arange(100, 108))
        idx = place(system, "i", [1, 7, 2])
        mask = system.ctx.bitmask("m", np.array([True, False, True]))
        out, report = system.scu.access_compaction(data, idx, mask)
        assert list(out.values) == [101, 102]
        assert report.elements == 3

    def test_replication_compaction(self, system):
        data = place(system, "d", [7, 8])
        count = place(system, "c", [2, 3])
        out, report = system.scu.replication_compaction(data, count)
        assert list(out.values) == [7, 7, 8, 8, 8]
        assert report.elements == 5  # occupancy follows output length

    def test_access_expansion_compaction(self, system):
        edges = place(system, "edges", [1, 2, 3, 4, 5, 5, 2, 6])
        offsets = place(system, "off", [0, 3, 5])
        degrees = place(system, "deg", [3, 2, 1])
        out, report = system.scu.access_expansion_compaction(edges, offsets, degrees)
        assert list(out.values) == [1, 2, 3, 4, 5, 5]
        assert report.elements == 6

    def test_expansion_with_reorder(self, system):
        edges = place(system, "edges", [10, 11, 12, 13])
        offsets = place(system, "off", [0])
        degrees = place(system, "deg", [4])
        perm = place(system, "perm", [3, 2, 1, 0])
        out, _ = system.scu.access_expansion_compaction(
            edges, offsets, degrees, reorder=perm
        )
        assert list(out.values) == [13, 12, 11, 10]

    def test_length_mismatch_rejected_once(self, system):
        edges = place(system, "edges", np.arange(8))
        offsets = place(system, "off", [0, 3, 5])
        degrees = place(system, "deg", [3, 2])
        with pytest.raises(OperationError, match="indexes length 3 != count length 2"):
            system.scu.access_expansion_compaction(edges, offsets, degrees)

    def test_reorder_length_checked(self, system):
        data = place(system, "d", [1, 2, 3])
        mask = system.ctx.bitmask("m", np.array([True, True, True]))
        bad_perm = place(system, "perm", [0, 1])
        with pytest.raises(OperationError, match="reorder"):
            system.scu.data_compaction(data, mask, reorder=bad_perm)


class TestFilterAndGroupPasses:
    def test_filter_unique_pass(self, system):
        ids = place(system, "ids", [4, 4, 9, 4, 9])
        mask, report = system.scu.filter_unique_pass(ids)
        assert list(ids.values[mask.values]) == [4, 9]
        assert report.name.startswith("scu.filter_unique")
        # hash probes show up as memory traffic
        assert report.memory.transactions > 0

    def test_filter_best_cost_pass(self, system):
        ids = place(system, "ids", [3, 3, 3])
        costs = place(system, "costs", [5.0, 2.0, 4.0])
        mask, report = system.scu.filter_best_cost_pass(ids, costs)
        assert list(mask.values) == [True, True, False]
        assert report.elements == 3

    def test_grouping_pass_returns_permutation(self, system):
        rng = np.random.default_rng(0)
        dests = place(system, "dests", rng.integers(0, 1000, size=512))
        perm, report = system.scu.grouping_pass(dests)
        assert np.array_equal(np.sort(perm.values), np.arange(512))
        assert report.elements == 512

    def test_grouping_clusters_same_line_destinations(self, system):
        # 32 nodes per 128-byte line (4-byte entries).
        dests = place(system, "dests", np.array([0, 64, 1, 65, 2, 66]))
        perm, _ = system.scu.grouping_pass(dests)
        grouped = dests.values[perm.values]
        lines = grouped * 4 // 128
        changes = np.count_nonzero(lines[1:] != lines[:-1])
        assert changes == 1  # the two lines are contiguous blocks

    def test_two_step_filter_then_compact(self, system):
        """The paper's enhanced-SCU protocol end to end."""
        ids = place(system, "ef", [7, 8, 7, 9, 8, 7])
        mask, _ = system.scu.filter_unique_pass(ids)
        out, _ = system.scu.data_compaction(ids, mask, out="nf")
        assert sorted(out.values.tolist()) == [7, 8, 9]


class TestCostSanity:
    def test_bigger_op_costs_more(self, system):
        small = place(system, "small", np.arange(256))
        large = place(system, "large", np.arange(1 << 16))
        m_small, r_small = system.scu.bitmask_constructor(small, "gt", 0)
        m_large, r_large = system.scu.bitmask_constructor(large, "gt", 0)
        assert r_large.time_s > r_small.time_s
        assert r_large.dynamic_energy_j > r_small.dynamic_energy_j

    def test_wider_pipeline_faster(self):
        wide = build_system("TX1")
        wide.scu.config = wide.scu.config.with_pipeline_width(8)
        narrow = build_system("TX1")
        data_w = wide.ctx.array("d", np.arange(1 << 18))
        data_n = narrow.ctx.array("d", np.arange(1 << 18))
        _, r_wide = wide.scu.bitmask_constructor(data_w, "gt", 0)
        _, r_narrow = narrow.scu.bitmask_constructor(data_n, "gt", 0)
        assert r_wide.time_s <= r_narrow.time_s

    def test_scu_cheaper_than_gpu_for_compaction(self, system):
        """The paper's core claim at micro scale: moving N elements
        through the SCU costs less energy than a GPU kernel doing the
        same data movement."""
        from repro.gpu import KernelSpec

        n = 1 << 16
        values = np.arange(n)
        data = place(system, "d", values)
        mask = system.ctx.bitmask("m", np.ones(n, dtype=bool))
        _, scu_report = system.scu.data_compaction(data, mask)

        spec = KernelSpec(
            "gpu-compact", PhaseKind.COMPACTION, threads=n, instructions_per_thread=12
        )
        spec.load(data.addresses())
        spec.store(data.addresses())
        gpu_report = system.gpu.run(spec)
        assert scu_report.dynamic_energy_j < gpu_report.dynamic_energy_j


class TestBackToBackExpansion:
    """An expansion whose ranges are back to back (a whole CSR adjacency,
    as PageRank issues every iteration) walks the data as one range; the
    explicit gather stays the spec it must match."""

    GRAPHS = {
        "delaunay": generate_delaunay(num_points=2048, seed=5),
        # Zero-degree nodes: empty ranges inside the run.
        "kron": generate_kron(scale=9, edge_factor=4, seed=6),
    }

    @staticmethod
    def _expand(graph, bitmask=None):
        obs = make_observability()
        system = build_system("TX1", mode="scu-basic", obs=obs)
        edges = system.ctx.array("edges", graph.edges)
        offsets = system.ctx.array("off", graph.offsets[:-1])
        degrees = system.ctx.array("deg", graph.out_degrees)
        mask = None if bitmask is None else system.ctx.bitmask("m", bitmask)
        out, report = system.scu.access_expansion_compaction(
            edges, offsets, degrees, mask, out="ef"
        )
        return out.values, report, obs.metrics.flat_snapshot()

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("selection", ["all", "prefix", "scattered"])
    def test_same_report_as_explicit_gather(self, name, selection, monkeypatch):
        graph = self.GRAPHS[name]
        n = graph.num_nodes
        bitmask = {
            "all": None,
            "prefix": np.arange(n) < n // 3,
            "scattered": np.arange(n) % 3 == 0,
        }[selection]
        values, report, metrics = self._expand(graph, bitmask)
        monkeypatch.setattr(ops, "back_to_back_start", lambda idx, cnt: None)
        want_values, want_report, want_metrics = self._expand(graph, bitmask)
        assert values.tobytes() == want_values.tobytes()
        assert report == want_report
        assert report.time_s.hex() == want_report.time_s.hex()
        assert report.dynamic_energy_j.hex() == want_report.dynamic_energy_j.hex()
        assert report.memory.row_hit_fraction.hex() == (
            want_report.memory.row_hit_fraction.hex()
        )
        assert metrics == want_metrics

    def test_whole_adjacency_issues_no_gather(self, monkeypatch):
        def addresses(*args, **kwargs):
            raise AssertionError("explicit gather issued for back-to-back ranges")

        monkeypatch.setattr(DeviceArray, "addresses", addresses)
        for graph in self.GRAPHS.values():
            self._expand(graph)
