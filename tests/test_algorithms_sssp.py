"""SSSP (near-far) correctness and cost-report structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import SystemMode, run_algorithm, sssp_reference
from repro.algorithms.sssp import _dedup_best, _dedup_best_reference
from repro.graph import build_csr
from repro.graph.generators import (
    generate_delaunay,
    generate_kron,
    generate_road_network,
)
from repro.phases import Engine

GRAPHS = {
    "kron": generate_kron(scale=9, edge_factor=8, seed=21),
    "road": generate_road_network(side=20, seed=22),
    "delaunay": generate_delaunay(num_points=400, seed=23),
}


def assert_distances_match(computed: np.ndarray, expected: np.ndarray) -> None:
    reached = ~np.isinf(expected)
    assert np.array_equal(np.isinf(computed), np.isinf(expected))
    assert np.allclose(computed[reached], expected[reached])


class TestCorrectness:
    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    @pytest.mark.parametrize("mode", list(SystemMode))
    def test_matches_dijkstra(self, graph_name, mode):
        graph = GRAPHS[graph_name]
        dist = run_algorithm("sssp", graph, "TX1", mode, source=0).result
        assert_distances_match(dist, sssp_reference(graph, 0))

    @pytest.mark.parametrize("mode", list(SystemMode))
    def test_matches_dijkstra_on_gtx980(self, mode):
        graph = GRAPHS["kron"]
        dist = run_algorithm("sssp", graph, "GTX980", mode, source=5).result
        assert_distances_match(dist, sssp_reference(graph, 5))

    def test_paper_figure2_distances(self):
        # Figure 2c: SSSP distances from A (weights of Figure 2b).
        offsets = np.array([0, 3, 5, 6, 8, 8, 8, 8])
        edges = np.array([1, 2, 3, 4, 5, 5, 2, 6])
        weights = np.array([2.0, 3.0, 1.0, 1.0, 1.0, 2.0, 1.0, 2.0])
        graph = build_csr(
            7,
            np.repeat(np.arange(7), np.diff(offsets)),
            edges,
            weights,
            deduplicate=False,
        )
        dist = run_algorithm("sssp", graph, "TX1", SystemMode.SCU_ENHANCED, source=0).result
        assert list(dist) == [0.0, 2.0, 2.0, 1.0, 3.0, 3.0, 3.0]

    def test_delta_parameter_does_not_change_result(self):
        graph = GRAPHS["road"]
        expected = sssp_reference(graph, 0)
        for delta in (1.0, 3.0, 20.0):
            dist = run_algorithm(
                "sssp", graph, "TX1", SystemMode.SCU_ENHANCED, source=0, delta=delta
            ).result
            assert_distances_match(dist, expected)

    def test_unreachable_nodes_are_inf(self):
        graph = build_csr(3, np.array([0]), np.array([1]), np.array([4.0]))
        dist = run_algorithm("sssp", graph, "TX1", SystemMode.GPU, source=0).result
        assert dist[2] == np.inf


class TestDedupBest:
    def test_keeps_minimum_cost_per_destination(self):
        dests = np.array([5, 5, 7, 5])
        costs = np.array([3.0, 1.0, 2.0, 4.0])
        keep = _dedup_best(dests, costs)
        assert list(keep) == [False, True, True, False]

    def test_empty(self):
        assert _dedup_best(np.array([], dtype=np.int64), np.array([])).size == 0

    def test_unique_dests_all_kept(self):
        keep = _dedup_best(np.arange(10), np.ones(10))
        assert keep.all()

    @given(
        st.integers(min_value=1, max_value=300).flatmap(
            lambda n: st.tuples(
                # Node ids, or the -1 of an entry that is not near; from
                # a few ids (many duplicates) up to all distinct.
                st.lists(st.integers(min_value=-1, max_value=n), min_size=n, max_size=n),
                st.lists(
                    st.one_of(
                        # Few distinct costs (ties), and any float costs.
                        st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.5, np.inf]),
                        st.floats(min_value=0.0, allow_nan=False),
                    ),
                    min_size=n,
                    max_size=n,
                ),
            )
        ),
        st.sampled_from(["as drawn", "all sentinel", "one destination", "all infinite"]),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_lexsort_reference(self, drawn, case):
        dests, costs = (np.asarray(drawn[0], dtype=np.int64), np.asarray(drawn[1]))
        if case == "all sentinel":
            dests[:] = -1
        elif case == "one destination":
            dests[:] = 3
        elif case == "all infinite":
            costs[:] = np.inf
        keep = _dedup_best(dests, costs)
        assert keep.dtype == bool
        assert keep.tolist() == _dedup_best_reference(dests, costs).tolist()

    def test_tied_and_nan_costs_keep_the_first(self):
        dests = np.array([4, 4, 4, -1, -1, 9, 9, 9])
        costs = np.array([np.inf, 2.0, 2.0, np.nan, np.nan, np.nan, np.nan, np.inf])
        keep = _dedup_best(dests, costs)
        assert keep.tolist() == [False, True, False, True, False, False, False, True]
        assert keep.tolist() == _dedup_best_reference(dests, costs).tolist()


class TestReports:
    def test_atomics_counted(self):
        report = run_algorithm("sssp", GRAPHS["kron"], "TX1", SystemMode.GPU).report
        # atomicMin relaxations show up in the process kernels.
        process_phases = [p for p in report if "contract.process" in p.name]
        assert process_phases

    def test_enhanced_reduces_gpu_instructions(self):
        base = run_algorithm("sssp", GRAPHS["kron"], "TX1", SystemMode.GPU).report
        enh = run_algorithm("sssp", GRAPHS["kron"], "TX1", SystemMode.SCU_ENHANCED).report
        assert enh.instructions(engine=Engine.GPU) < base.instructions(engine=Engine.GPU)

    def test_enhanced_beats_baseline_time(self):
        base = run_algorithm("sssp", GRAPHS["kron"], "TX1", SystemMode.GPU).report
        enh = run_algorithm("sssp", GRAPHS["kron"], "TX1", SystemMode.SCU_ENHANCED).report
        assert enh.time_s() < base.time_s()

    def test_far_pile_phases_present_on_road_network(self):
        # Road networks drain many thresholds, exercising far-pile reuse.
        report = run_algorithm("sssp", GRAPHS["road"], "TX1", SystemMode.SCU_ENHANCED).report
        far_filters = [p for p in report if "far" in p.name]
        assert far_filters
