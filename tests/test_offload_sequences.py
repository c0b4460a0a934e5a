"""The offload sequence each graph driver runs (Algorithms 1–5).

Pins, as literal lists, the phase names of each driver's first
iteration on a small road network, per system mode: which steps run as
GPU kernels and which as SCU operations, in which order, on which
operands (an SCU phase names its input array).  The drivers are the one
written form of each offload, so these pins read it from the code that
runs.  They do not pin the address layout: a change that moves arrays
keeps every name here.  Byte identity of the reports is the job of the
quick-grid baseline (``repro bench --compare ... --sim-tolerance 0``).
"""

import pytest

from repro.algorithms import SystemMode, run_algorithm, sssp
from repro.graph.generators import generate_road_network

GRAPH = generate_road_network(side=18, seed=42)

# The IRU reorders accesses inside the GPU's memory path, so it runs
# the GPU baseline's phases.
BFS_GPU = [
    "bfs.expand.prepare",
    "bfs.expand.gather",
    "bfs.contract.process",
    "bfs.contract.compact",
]
SSSP_GPU = [
    "sssp.expand.prepare",
    "sssp.expand.gather",
    "sssp.contract.process",
    "sssp.contract.compact",
]
PAGERANK_GPU = [
    "pr.expand.prepare",
    "pr.expand.gather",
    "pr.rank_update",
    "pr.dampen",
    "pr.convergence",
]
# Algorithm 3: filtering and grouping do not apply, so the enhanced SCU
# runs the basic offload.
PAGERANK_SCU = [
    "pr.expand.prepare",
    "scu.expansion(csr.edges)",
    "scu.replication(pr.contrib)",
    "pr.rank_update",
    "pr.dampen",
    "pr.convergence",
]
CC_GPU = [
    "cc.expand.prepare",
    "cc.expand.gather",
    "cc.contract.process",
    "cc.contract.compact",
]

FIRST_ITERATION = {
    ("bfs", "gpu"): BFS_GPU,
    ("bfs", "iru"): BFS_GPU,
    # Algorithm 1.
    ("bfs", "scu-basic"): [
        "bfs.expand.prepare",
        "scu.expansion(csr.edges)",
        "bfs.contract.process",
        "scu.data_compaction(ef)",
    ],
    # Algorithm 4: a filter pass before the gather and before the compaction.
    ("bfs", "scu-enhanced"): [
        "bfs.expand.prepare",
        "scu.filter_unique(ef.ids)",
        "scu.expansion(csr.edges)",
        "bfs.contract.process",
        "scu.filter_unique(ef)",
        "scu.data_compaction(ef)",
    ],
    ("sssp", "gpu"): SSSP_GPU,
    ("sssp", "iru"): SSSP_GPU,
    # Algorithm 2.
    ("sssp", "scu-basic"): [
        "sssp.expand.prepare",
        "scu.expansion(csr.edges)",
        "scu.expansion(csr.weights)",
        "scu.replication(expand.cost)",
        "sssp.contract.process",
        "scu.data_compaction(ef)",
        "scu.data_compaction(ef)",
        "scu.data_compaction(wf)",
    ],
    # Algorithm 5: filtering and grouping on expansion, grouping on the
    # near contraction.
    ("sssp", "scu-enhanced"): [
        "sssp.expand.prepare",
        "scu.filter_best_cost(ef.ids)",
        "scu.grouping(ef.kept)",
        "scu.expansion(csr.edges)",
        "scu.expansion(csr.weights)",
        "scu.replication(expand.cost)",
        "sssp.contract.process",
        "scu.grouping(near.ids)",
        "scu.data_compaction(ef)",
        "scu.data_compaction(ef)",
        "scu.data_compaction(wf)",
    ],
    ("sssp", "scu-enhanced-no-grouping"): [
        "sssp.expand.prepare",
        "scu.filter_best_cost(ef.ids)",
        "scu.expansion(csr.edges)",
        "scu.expansion(csr.weights)",
        "scu.replication(expand.cost)",
        "sssp.contract.process",
        "scu.data_compaction(ef)",
        "scu.data_compaction(ef)",
        "scu.data_compaction(wf)",
    ],
    ("pagerank", "gpu"): PAGERANK_GPU,
    ("pagerank", "iru"): PAGERANK_GPU,
    ("pagerank", "scu-basic"): PAGERANK_SCU,
    ("pagerank", "scu-enhanced"): PAGERANK_SCU,
    ("connected_components", "gpu"): CC_GPU,
    ("connected_components", "iru"): CC_GPU,
    ("connected_components", "scu-basic"): [
        "cc.expand.prepare",
        "scu.expansion(csr.edges)",
        "scu.replication(cc.labels)",
        "cc.contract.process",
        "scu.data_compaction(cc.ef)",
    ],
    # Unique-best-cost filtering with labels as the cost, after replication.
    ("connected_components", "scu-enhanced"): [
        "cc.expand.prepare",
        "scu.expansion(csr.edges)",
        "scu.replication(cc.labels)",
        "scu.filter_best_cost(cc.ef)",
        "scu.data_compaction(cc.ef)",
        "scu.data_compaction(cc.lf)",
        "cc.contract.process",
        "scu.data_compaction(cc.ef.f)",
    ],
}

SSSP_FIRST_FAR_PILE_STEP = {
    "scu-basic": [
        "sssp.contract.process",
        "scu.data_compaction(far.pile.e)",
        "scu.data_compaction(far.pile.e)",
        "scu.data_compaction(far.pile.w)",
    ],
    # Algorithm 5: the far pile was never filtered; it is filtered and
    # grouped before the contraction.
    "scu-enhanced": [
        "scu.filter_best_cost(far.pile.e)",
        "scu.grouping(far.kept)",
        "scu.data_compaction(far.pile.e)",
        "scu.data_compaction(far.pile.w)",
        "sssp.contract.process",
        "scu.grouping(near.ids.2)",
        "scu.data_compaction(far.e.filtered)",
        "scu.data_compaction(far.e.filtered)",
        "scu.data_compaction(far.w.filtered)",
    ],
    "scu-enhanced-no-grouping": [
        "scu.filter_best_cost(far.pile.e)",
        "scu.data_compaction(far.pile.e)",
        "scu.data_compaction(far.pile.w)",
        "sssp.contract.process",
        "scu.data_compaction(far.e.filtered)",
        "scu.data_compaction(far.e.filtered)",
        "scu.data_compaction(far.w.filtered)",
    ],
}


def _run(algorithm, variant):
    """The report of ``algorithm`` on the road network in ``variant``:
    a mode, or ``scu-enhanced-no-grouping`` (SSSP's filtering only)."""
    kwargs = {}
    if variant == "scu-enhanced-no-grouping":
        variant, kwargs = "scu-enhanced", {"enable_grouping": False}
    return run_algorithm(algorithm, GRAPH, "TX1", SystemMode(variant), **kwargs).report


@pytest.mark.parametrize(
    ("algorithm", "variant"),
    sorted(FIRST_ITERATION),
    ids=[f"{algorithm}-{variant}" for algorithm, variant in sorted(FIRST_ITERATION)],
)
def test_first_iteration(algorithm, variant):
    names = [phase.name for phase in _run(algorithm, variant)]
    # Every iteration starts with the driver's GPU prepare kernel.
    assert names[: names.index(names[0], 1)] == FIRST_ITERATION[algorithm, variant]


@pytest.mark.parametrize("variant", sorted(SSSP_FIRST_FAR_PILE_STEP))
def test_sssp_first_far_pile_step(variant, monkeypatch):
    steps = []
    consume_far = sssp._consume_far

    def recorded(dev, *args):
        start = len(dev.report.phases)
        result = consume_far(dev, *args)
        steps.append([phase.name for phase in dev.report.phases[start:]])
        return result

    monkeypatch.setattr(sssp, "_consume_far", recorded)
    _run("sssp", variant)
    assert steps[0] == SSSP_FIRST_FAR_PILE_STEP[variant]
