"""The benchmark's inputs, generated from ``--seed`` alone.

Every workload is a pure function of the seed: the two sweeps are lists
of :class:`~repro.request.RunRequest` whose ``seed`` field is the
dataset-generation seed, and the serve workload is a key population plus
an open-loop schedule.  The program under test only ever receives these
generated requests (or their JSON bodies).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.request import RunRequest

MODES = ("gpu", "scu-basic", "scu-enhanced", "iru")

#: PageRank never uses the enhanced SCU (paper section 4.6): the
#: ``scu-enhanced`` grid cell is the ``scu-basic`` request, so it runs once.
PAGERANK_MODES = ("gpu", "scu-basic", "iru")

PAGERANK_DATASET = "delaunay"
PAGERANK_GPUS = ("TX1",)
#: PageRank runs to convergence, and the iteration count depends on the
#: graph: across seeds, one ``delaunay`` graph's requests simulate up to
#: 9% more or fewer transactions than another's.  A pass averages that
#: over two graphs (dataset seeds ``seed`` and ``seed + 1``), in the same
#: six requests that one graph on both GPUs took.
PAGERANK_GRAPHS = 2

#: (algorithm, dataset): SSSP on ``delaunay`` makes thousands of small
#: hierarchy calls whose streams rarely repeat; BFS on ``kron`` carries
#: the heaviest SCU filter work.
TRAVERSAL_CELLS = (("bfs", "delaunay"), ("bfs", "kron"), ("sssp", "delaunay"))
TRAVERSAL_GPUS = ("TX1",)

#: Entries in the daemon's in-memory L1 run cache
#: (``repro.algorithms.runner.RUN_CACHE_SIZE``); the serve population is
#: sized from it so the zipf tail has to come from the L2 store.
L1_ENTRIES = 32
POPULATION_SIZE = 3 * L1_ENTRIES

#: One request in this many carries a never-seen key (a simulation plus
#: a store write); the rest are drawn zipf-skewed from the population.
#: 20 fresh keys per 1000 requests put p99 (10 samples beyond it) at the
#: median fresh-key latency rather than at a ragged edge of that cluster;
#: that needs the fresh keys to cost alike (see ``FRESH_KEY``).
FRESH_EVERY = 50
ZIPF_EXPONENT = 1.1
#: Offered load of the open loop, requests per second: below saturation
#: (the daemon is busy about a third of the window), and enough that a
#: 20 s window leaves 10 samples beyond p99.
OFFERED_RPS = 50.0
#: Client connections: no more than the 2 cores the load was sized for.
CONNECTIONS = 2

#: (algorithm, dataset, share of the population) strata of the serve
#: keys.  Ranks interleave the strata in a fixed pattern so the zipf head
#: always holds the same mix of body sizes whatever the seed.
SERVE_STRATA = (("bfs", "cond", 2), ("sssp", "cond", 1))
SERVE_GPUS = ("GTX980", "TX1")
#: (algorithm, dataset, GPU, mode) of every fresh key, each from a source
#: of its own.  One configuration, because BFS on ``cond`` costs from
#: about 40 to 110 ms by configuration and source; mixing them put p99 on
#: the edge between a cheap and a dear group of fresh keys.
FRESH_KEY = ("bfs", "cond", "GTX980", "scu-enhanced")
#: Fresh keys start from a hub: one of the nodes with the highest out-degree,
#: this share of those with outgoing edges, kept out of the population.
#: From a hub, the fresh key's simulation took 55-60 ms; from any node,
#: 37-53 ms.
HUB_SHARE = 0.05


def pagerank_requests(seed: int) -> List[RunRequest]:
    """Every distinct PageRank request of the grid slice, on two graphs."""
    return [
        RunRequest.make("pagerank", PAGERANK_DATASET, gpu, mode, seed=graph_seed)
        for graph_seed in range(seed, seed + PAGERANK_GRAPHS)
        for gpu in PAGERANK_GPUS
        for mode in PAGERANK_MODES
    ]


def traversal_requests(seed: int) -> List[RunRequest]:
    """BFS and SSSP over every mode of the traversal grid slice."""
    return [
        RunRequest.make(algorithm, dataset, gpu, mode, seed=seed)
        for algorithm, dataset in TRAVERSAL_CELLS
        for gpu in TRAVERSAL_GPUS
        for mode in MODES
    ]


SWEEPS = {"pagerank": pagerank_requests, "traversal": traversal_requests}


@dataclass(frozen=True)
class ServeSchedule:
    """The serve workload's inputs: who is primed, and what is sent when."""

    population: Tuple[RunRequest, ...]
    #: (due offset in seconds, request) in send order.
    sends: Tuple[Tuple[float, RunRequest], ...]


def _source_pools(seed: int) -> Dict[str, List[int]]:
    """Candidate BFS/SSSP sources per dataset: nodes with outgoing edges,
    highest out-degree first (ties in node order)."""
    import numpy as np
    from repro.graph.datasets import load_dataset

    pools = {}
    for dataset in sorted({dataset for _, dataset, _ in SERVE_STRATA} | {FRESH_KEY[1]}):
        degrees = load_dataset(dataset, seed=seed).out_degrees
        nodes = (degrees > 0).nonzero()[0]
        order = np.argsort(-degrees[nodes], kind="stable")
        pools[dataset] = [int(node) for node in nodes[order]]
    return pools


def serve_schedule(seed: int, seconds: float) -> ServeSchedule:
    """Population (in zipf rank order) and open-loop sends for ``seed``."""
    rng = random.Random(seed)
    pools = _source_pools(seed)
    count = int(seconds * OFFERED_RPS)
    # Hubs are kept for fresh keys, so no population key can be sent as one.
    pool = pools[FRESH_KEY[1]]
    hubs = pool[: max(int(HUB_SHARE * len(pool)), count // FRESH_EVERY + 1)]
    pools[FRESH_KEY[1]] = pool[len(hubs):]
    fresh_sources = iter(rng.sample(hubs, len(hubs)))
    sources = {
        dataset: iter(rng.sample(pool, len(pool))) for dataset, pool in sorted(pools.items())
    }
    pattern = [
        (algorithm, dataset)
        for algorithm, dataset, share in SERVE_STRATA
        for _ in range(share)
    ]
    population = []
    for rank in range(POPULATION_SIZE):
        algorithm, dataset = pattern[rank % len(pattern)]
        slot = rank // len(pattern)
        gpu = SERVE_GPUS[slot % len(SERVE_GPUS)]
        mode = MODES[(slot // len(SERVE_GPUS)) % len(MODES)]
        population.append(
            RunRequest.make(
                algorithm, dataset, gpu, mode, seed=seed, source=next(sources[dataset])
            )
        )
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(POPULATION_SIZE)]
    first_fresh = rng.randrange(FRESH_EVERY)
    algorithm, dataset, gpu, mode = FRESH_KEY
    sends = []
    for index in range(count):
        due = index / OFFERED_RPS
        if index % FRESH_EVERY == first_fresh:
            request = RunRequest.make(
                algorithm, dataset, gpu, mode, seed=seed, source=next(fresh_sources)
            )
        else:
            request = population[rng.choices(range(POPULATION_SIZE), weights)[0]]
        sends.append((due, request))
    return ServeSchedule(population=tuple(population), sends=tuple(sends))
