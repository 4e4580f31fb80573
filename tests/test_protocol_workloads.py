"""Pinned results of every protocol, baseline and W-streaming workload.

Each case runs one algorithm on a fixed instance, checks the output is
valid, and pins a digest of the coloring and the transcript counters.
The digests were computed on the dict-of-sets graph that was the
reference representation before the CSR layout became the only
``Graph``, so a match also shows the row layout changed no result: same
colorings, same bits, same rounds, under the same seeds.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.baselines import (
    run_flin_mittal,
    run_greedy_binary_search,
    run_naive_exchange,
    run_one_round_sparsify,
    run_vizing_gather,
)
from repro.coloring import (
    fournier_edge_coloring,
    greedy_edge_coloring,
    greedy_vertex_coloring,
    vizing_edge_coloring,
)
from repro.core import (
    run_edge_coloring,
    run_vertex_coloring,
    run_zero_comm_edge_coloring,
    weaker_from_streaming,
)
from repro.graphs import (
    PARTITIONERS,
    assert_proper_edge_coloring,
    assert_proper_vertex_coloring,
    configuration_model_graph,
    gnp_random_graph,
    grid_graph,
    hypercube_graph,
    partition_random,
    power_law_degree_sequence,
    random_regular_graph,
)
from repro.lowerbound.wstreaming import (
    BufferedWStreamColorer,
    GreedyWStreamColorer,
)

from .conftest import make_fournier_instance

WORKLOADS = {
    "regular-64-8": lambda rng: random_regular_graph(64, 8, rng),
    "gnp-48": lambda rng: gnp_random_graph(48, 0.15, rng),
    "grid-8x8": lambda rng: grid_graph(8, 8),
    "hypercube-5": lambda rng: hypercube_graph(5),
    "power-law-64": lambda rng: configuration_model_graph(
        power_law_degree_sequence(64, 2.3, 16, rng), rng
    ),
}

BASELINES = {
    "naive": run_naive_exchange,
    "greedy_binary_search": run_greedy_binary_search,
    "one_round": lambda part: run_one_round_sparsify(part, seed=9),
    "flin_mittal": lambda part: run_flin_mittal(part, seed=9),
}

STREAMERS = {
    "greedy": lambda part: lambda: GreedyWStreamColorer(part.n, part.max_degree),
    "buffered": lambda part: lambda: BufferedWStreamColorer(part.n, 16),
}

#: sha256 prefixes of each case's ``repr`` record (see the tests below).
PINNED = {
    "vertex/regular-64-8": "e6356c114e5236dd",
    "vertex/gnp-48": "c9fe2405a6a51cd8",
    "vertex/grid-8x8": "da9f9af93f32b5d3",
    "vertex/hypercube-5": "21fad05361382c34",
    "vertex/power-law-64": "a1223518f21bd24d",
    "edge/regular-64-8": "01ea6d0693fb1808",
    "edge/gnp-48": "6fcf2bb8babd339d",
    "edge/grid-8x8": "24b08e533fff54a0",
    "edge/hypercube-5": "1fae8b404c98ea3e",
    "edge/power-law-64": "2ba95cf6e52d2efe",
    "zero_comm/regular-64-8": "6fd75871b2abaa8c",
    "zero_comm/gnp-48": "9fdb8cdddb66b685",
    "zero_comm/grid-8x8": "912908233a5c2b4e",
    "zero_comm/hypercube-5": "1e7849614d0ffbcd",
    "zero_comm/power-law-64": "0833ddeca77b9be6",
    "partitioner/all_alice": "1583aa9a5b6515f5",
    "partitioner/all_bob": "2925a7b520103070",
    "partitioner/alternating": "ae73be449d1689f3",
    "partitioner/crossing": "194d87b095246677",
    "partitioner/degree_split": "6d1a10c2241e5bd3",
    "partitioner/hash": "19a667b757f47396",
    "partitioner/random": "9be568ce308475c9",
    "local/greedy_vertex": "50864e95facb38ec",
    "local/greedy_edge": "64b3ad41d05ad4fc",
    "local/vizing": "64b3ad41d05ad4fc",
    "local/fournier": "0976245444a84722",
    "baseline/naive": "24458affe0158397",
    "baseline/greedy_binary_search": "3016022847a9c3bb",
    "baseline/one_round": "4198ad4ba157e7a8",
    "baseline/flin_mittal": "31cf660bf716b5ce",
    "baseline/vizing_gather": "ea5dfbad4db44845",
    "wstreaming/greedy": "4ff69b104dda21bf",
    "wstreaming/buffered": "ee0e63418b613158",
}


def _digest(*record) -> str:
    return hashlib.sha256(repr(record).encode()).hexdigest()[:16]


def _partitioned(name: str, seed: int):
    rng = random.Random(seed)
    return partition_random(WORKLOADS[name](rng), rng)


def _check(key: str, *record) -> None:
    assert _digest(*record) == PINNED[key], key


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_vertex_coloring_workload(name):
    part = _partitioned(name, 11)
    result = run_vertex_coloring(part, seed=3)
    assert_proper_vertex_coloring(part.graph, result.colors, part.max_degree + 1)
    _check(
        f"vertex/{name}",
        sorted(result.colors.items()),
        result.total_bits,
        result.rounds,
        result.leftover_size,
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_edge_coloring_workload(name):
    part = _partitioned(name, 22)
    result = run_edge_coloring(part)
    assert_proper_edge_coloring(
        part.graph, result.colors, max(2 * part.max_degree - 1, 1)
    )
    _check(
        f"edge/{name}", sorted(result.colors.items()), result.total_bits, result.rounds
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_zero_comm_workload(name):
    part = _partitioned(name, 33)
    result = run_zero_comm_edge_coloring(part)
    assert result.total_bits == 0
    assert_proper_edge_coloring(part.graph, result.colors, result.num_colors)
    _check(f"zero_comm/{name}", sorted(result.colors.items()))


@pytest.mark.parametrize("scheme", sorted(PARTITIONERS))
def test_partitioner_workload(scheme):
    """One public coin per edge in sorted ``edges()`` order fixes the split."""
    graph = random_regular_graph(40, 6, random.Random(7))
    part = PARTITIONERS[scheme](graph, random.Random(99))
    assert part.alice_edges | part.bob_edges == set(graph.edges())
    assert not part.alice_edges & part.bob_edges
    _check(f"partitioner/{scheme}", sorted(part.alice_edges))


def _local_case(name: str):
    if name == "fournier":
        graph = make_fournier_instance(30, 0.25, random.Random(55))
        colors = fournier_edge_coloring(graph)
        assert_proper_edge_coloring(graph, colors, graph.max_degree())
        return colors
    graph = gnp_random_graph(40, 0.2, random.Random(44))
    delta = graph.max_degree()
    if name == "greedy_vertex":
        colors = greedy_vertex_coloring(graph)
        assert_proper_vertex_coloring(graph, colors, delta + 1)
    elif name == "greedy_edge":
        colors = greedy_edge_coloring(graph)
        assert_proper_edge_coloring(graph, colors, 2 * delta - 1)
    else:
        colors = vizing_edge_coloring(graph)
        assert_proper_edge_coloring(graph, colors, delta + 1)
    return colors


@pytest.mark.parametrize("name", ["greedy_vertex", "greedy_edge", "vizing", "fournier"])
def test_local_coloring_workload(name):
    _check(f"local/{name}", sorted(_local_case(name).items()))


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_vertex_baseline_workload(name):
    rng = random.Random(66)
    part = partition_random(random_regular_graph(40, 6, rng), rng)
    result = BASELINES[name](part)
    assert_proper_vertex_coloring(part.graph, result.colors, part.max_degree + 1)
    _check(
        f"baseline/{name}",
        sorted(result.colors.items()),
        sorted(result.transcript.summary().items()),
    )


def test_vizing_gather_workload():
    rng = random.Random(66)
    part = partition_random(random_regular_graph(40, 6, rng), rng)
    result = run_vizing_gather(part)
    assert_proper_edge_coloring(part.graph, result.colors, result.num_colors)
    _check(
        "baseline/vizing_gather",
        sorted(result.colors.items()),
        sorted(result.transcript.summary().items()),
    )


@pytest.mark.parametrize("name", sorted(STREAMERS))
def test_wstreaming_reduction_workload(name):
    rng = random.Random(77)
    part = partition_random(gnp_random_graph(30, 0.2, rng), rng)
    result = weaker_from_streaming(part, STREAMERS[name](part))
    # The buffered colorer spends colors beyond 2Δ−1 by design, so the
    # merged reports are checked for properness without a palette bound.
    assert_proper_edge_coloring(part.graph, result.colors)
    bob = result.bob_reports
    assert all(bob[e] == c for e, c in result.alice_reports.items() if e in bob)
    _check(
        f"wstreaming/{name}",
        sorted(result.alice_reports.items()),
        sorted(result.bob_reports.items()),
        sorted(result.transcript.summary().items()),
    )
