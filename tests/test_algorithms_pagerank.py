"""PageRank correctness and cost-report structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import SystemMode, pagerank_reference, run_algorithm
from repro.errors import SimulationError
from repro.graph import build_csr
from repro.graph.generators import generate_collaboration, generate_kron
from repro.phases import Engine, PhaseKind

GRAPHS = {
    "kron": generate_kron(scale=8, edge_factor=8, seed=31),
    "collab": generate_collaboration(num_authors=500, num_papers=900, seed=32),
}


class TestCorrectness:
    @pytest.mark.parametrize("graph_name", sorted(GRAPHS))
    @pytest.mark.parametrize("mode", [SystemMode.GPU, SystemMode.SCU_BASIC])
    def test_matches_reference(self, graph_name, mode):
        graph = GRAPHS[graph_name]
        ranks = run_algorithm("pagerank", graph, "TX1", mode, epsilon=1e-6).result
        expected = pagerank_reference(graph, epsilon=1e-7)
        assert np.allclose(ranks, expected, rtol=1e-2, atol=1e-3)

    def test_enhanced_equals_basic(self):
        """Section 4.6: PR does not use enhanced capabilities."""
        graph = GRAPHS["kron"]
        basic = run_algorithm("pagerank", graph, "TX1", SystemMode.SCU_BASIC).result
        enhanced = run_algorithm("pagerank", graph, "TX1", SystemMode.SCU_ENHANCED).result
        assert np.allclose(basic, enhanced)

    def test_hub_outranks_leaf(self):
        # star graph: all leaves point at the hub
        n = 20
        src = np.arange(1, n)
        dst = np.zeros(n - 1, dtype=np.int64)
        graph = build_csr(n, src, dst)
        ranks = run_algorithm("pagerank", graph, "TX1", SystemMode.GPU).result
        assert ranks[0] > ranks[1]

    def test_dangling_nodes_keep_base_score(self):
        graph = build_csr(3, np.array([0]), np.array([1]))
        ranks = run_algorithm(
            "pagerank", graph, "TX1", SystemMode.GPU, alpha=0.15
        ).result
        assert ranks[2] == pytest.approx(0.15)

    def test_invalid_alpha_rejected(self):
        with pytest.raises(SimulationError, match="alpha"):
            run_algorithm("pagerank", GRAPHS["kron"], "TX1", SystemMode.GPU, alpha=1.5)

    def test_non_convergence_raises(self):
        with pytest.raises(SimulationError, match="converge"):
            run_algorithm(
                "pagerank",
                GRAPHS["kron"],
                "TX1",
                SystemMode.GPU,
                epsilon=1e-12,
                max_iterations=2,
            )


class TestReports:
    def test_expansion_is_the_compaction_phase(self):
        report = run_algorithm("pagerank", GRAPHS["kron"], "TX1", SystemMode.GPU).report
        compaction = report.select(kind=PhaseKind.COMPACTION)
        assert compaction
        assert all("expand" in p.name for p in compaction)

    def test_rank_update_has_atomics_per_edge(self):
        graph = GRAPHS["kron"]
        report = run_algorithm("pagerank", graph, "TX1", SystemMode.GPU).report
        updates = [p for p in report if p.name == "pr.rank_update"]
        assert updates
        assert all(p.elements == graph.num_edges for p in updates)

    def test_offload_moves_compaction_to_scu(self):
        report = run_algorithm("pagerank", GRAPHS["kron"], "TX1", SystemMode.SCU_BASIC).report
        scu_phases = report.select(engine=Engine.SCU)
        assert scu_phases
        gpu_compaction = [
            p for p in report.select(engine=Engine.GPU, kind=PhaseKind.COMPACTION)
        ]
        assert not gpu_compaction

    def test_compaction_fraction_in_figure1_band(self):
        report = run_algorithm("pagerank", GRAPHS["kron"], "TX1", SystemMode.GPU).report
        assert 0.1 < report.compaction_time_fraction() < 0.6


class TestRankUpdateSums:
    """``run_pagerank`` sums each node's incoming contributions with
    ``np.bincount(targets, weights=...)``; ``np.add.at``, the atomics'
    spec in ``reference.py``, adds in the same input order, so the sums
    are the same floats."""

    @given(
        st.integers(min_value=1, max_value=40).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=n - 1),
                        st.floats(min_value=1e-5, max_value=1e5),
                    ),
                    max_size=300,
                ),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_bincount_matches_add_at_bit_for_bit(self, drawn):
        n, edges = drawn
        targets = np.array([t for t, _ in edges], dtype=np.int64)
        weights = np.array([w for _, w in edges], dtype=np.float64)
        want = np.zeros(n, dtype=np.float64)
        np.add.at(want, targets, weights)
        got = np.bincount(targets, weights=weights, minlength=n)
        if edges:  # with no edges numpy counts in integers: zeros all the same
            assert got.dtype == want.dtype
        assert got.astype(np.float64).tobytes() == want.tobytes()

    def test_edgeless_graph_ranks_are_base_scores(self):
        graph = build_csr(3, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        ranks = run_algorithm("pagerank", graph, "TX1", SystemMode.GPU, alpha=0.15).result
        assert ranks.dtype == np.float64
        assert list(ranks) == [0.15, 0.15, 0.15]
