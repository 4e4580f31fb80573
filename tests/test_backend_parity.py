"""Backend parity: protocols produce identical results on every backend.

An alternative graph backend (csr) is only admissible if it is
*observationally equivalent* to the reference dict-of-sets graph: same
colorings, same transcripts (bits and rounds), on the same instances,
under the same seeds.  These tests run the full protocol stack on
converted copies of one instance and compare everything.
"""

from __future__ import annotations

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
    as_backend,
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


#: Every non-reference backend must match the reference "set" graph.
ALT_BACKENDS = ("csr",)


def _pair(graph, rng, backend):
    part = partition_random(graph, rng)
    return part, part.astype(backend)


WORKLOADS = [
    ("regular-64-8", lambda rng: random_regular_graph(64, 8, rng)),
    ("gnp-48", lambda rng: gnp_random_graph(48, 0.15, rng)),
    ("grid-8x8", lambda rng: grid_graph(8, 8)),
    ("hypercube-5", lambda rng: hypercube_graph(5)),
    (
        "power-law-64",
        lambda rng: configuration_model_graph(
            power_law_degree_sequence(64, 2.3, 16, rng), rng
        ),
    ),
]


@pytest.mark.parametrize("backend", ALT_BACKENDS)
@pytest.mark.parametrize("name,builder", WORKLOADS)
def test_vertex_coloring_parity(name, builder, backend):
    rng = random.Random(11)
    part, bpart = _pair(builder(rng), rng, backend)
    a = run_vertex_coloring(part, seed=3)
    b = run_vertex_coloring(bpart, seed=3)
    assert a.colors == b.colors
    assert a.total_bits == b.total_bits
    assert a.rounds == b.rounds
    assert a.leftover_size == b.leftover_size


@pytest.mark.parametrize("backend", ALT_BACKENDS)
@pytest.mark.parametrize("name,builder", WORKLOADS)
def test_edge_coloring_parity(name, builder, backend):
    rng = random.Random(22)
    part, bpart = _pair(builder(rng), rng, backend)
    a = run_edge_coloring(part)
    b = run_edge_coloring(bpart)
    assert a.colors == b.colors
    assert a.total_bits == b.total_bits
    assert a.rounds == b.rounds


@pytest.mark.parametrize("backend", ALT_BACKENDS)
@pytest.mark.parametrize("name,builder", WORKLOADS)
def test_zero_comm_parity(name, builder, backend):
    rng = random.Random(33)
    part, bpart = _pair(builder(rng), rng, backend)
    a = run_zero_comm_edge_coloring(part)
    b = run_zero_comm_edge_coloring(bpart)
    assert a.colors == b.colors
    assert a.total_bits == 0 and b.total_bits == 0


@pytest.mark.parametrize("backend", ALT_BACKENDS)
@pytest.mark.parametrize("scheme", sorted(PARTITIONERS))
def test_partitioner_parity(scheme, backend):
    """Partitioners must produce the same edge split on every backend.

    This pins the sorted-``edges()`` contract: partition_random draws one
    public coin per edge in iteration order.
    """
    graph = random_regular_graph(40, 6, random.Random(7))
    alt_graph = as_backend(graph, backend)
    a = PARTITIONERS[scheme](graph, random.Random(99))
    b = PARTITIONERS[scheme](alt_graph, random.Random(99))
    assert set(a.alice_edges) == set(b.alice_edges)


@pytest.mark.parametrize("backend", ALT_BACKENDS)
def test_local_coloring_algorithms_parity(backend):
    rng = random.Random(44)
    graph = gnp_random_graph(40, 0.2, rng)
    alt_graph = as_backend(graph, backend)

    assert greedy_vertex_coloring(graph) == greedy_vertex_coloring(alt_graph)
    assert greedy_edge_coloring(graph) == greedy_edge_coloring(alt_graph)
    assert vizing_edge_coloring(graph) == vizing_edge_coloring(alt_graph)

    # Fournier needs independent max-degree vertices.
    from .conftest import make_fournier_instance

    instance = make_fournier_instance(30, 0.25, random.Random(55))
    assert fournier_edge_coloring(instance) == fournier_edge_coloring(
        as_backend(instance, backend)
    )


@pytest.mark.parametrize("backend", ALT_BACKENDS)
@pytest.mark.parametrize(
    "runner",
    [
        run_naive_exchange,
        run_greedy_binary_search,
        run_vizing_gather,
        lambda part: run_one_round_sparsify(part, seed=9),
        lambda part: run_flin_mittal(part, seed=9),
    ],
    ids=["naive", "greedy_binary_search", "vizing_gather", "one_round", "flin_mittal"],
)
def test_baseline_parity(runner, backend):
    rng = random.Random(66)
    part, bpart = _pair(random_regular_graph(40, 6, rng), rng, backend)
    a = runner(part)
    b = runner(bpart)
    assert a.colors == b.colors
    assert a.transcript.summary() == b.transcript.summary()


@pytest.mark.parametrize("backend", ALT_BACKENDS)
@pytest.mark.parametrize(
    "factory",
    [
        lambda part: lambda: GreedyWStreamColorer(part.n, part.max_degree),
        lambda part: lambda: BufferedWStreamColorer(part.n, 16),
    ],
    ids=["greedy", "buffered"],
)
def test_wstreaming_reduction_parity(factory, backend):
    rng = random.Random(77)
    part, bpart = _pair(gnp_random_graph(30, 0.2, rng), rng, backend)
    a = weaker_from_streaming(part, factory(part))
    b = weaker_from_streaming(bpart, factory(bpart))
    assert a.colors == b.colors
    assert a.transcript.summary() == b.transcript.summary()
