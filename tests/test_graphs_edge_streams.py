"""Streaming edge generators: stream == materialized.

Large graphs are built from edge *streams* (the ``Graph`` constructor
never materializes an edge list).  These tests pin the two contracts
that make that safe:

* **Equivalence** — consuming a generator's stream yields the identical
  edge sequence, and builds the identical graph, as materializing the
  list first.
* **Determinism** — the ``repro.rand`` Stream path consumes exactly the
  same counter range with the numpy kernels enabled or disabled (and
  under ``REPRO_NO_NUMPY=1``), so kernel availability can never shift a
  workload; the legacy ``random.Random`` path still replays the
  historical tape bit-for-bit.
"""

from __future__ import annotations

import random

import pytest

from repro.graphs import (
    Graph,
    configuration_model_edge_stream,
    configuration_model_graph,
    gnp_edge_stream,
    gnp_random_graph,
    gnp_with_max_degree,
    gnp_with_max_degree_edge_stream,
    power_law_degree_sequence,
)
from repro.rand import Stream, kernels


def _stream(label: str) -> Stream:
    return Stream.from_seed(77, "edge-streams").derive(label)


def test_gnp_stream_matches_materialized_graph():
    edges = list(gnp_edge_stream(120, 0.08, _stream("gnp")))
    assert edges == sorted(set(edges))  # canonical order, no duplicates
    built = gnp_random_graph(120, 0.08, _stream("gnp"))
    assert list(built.edges()) == edges
    assert Graph(120, gnp_edge_stream(120, 0.08, _stream("gnp"))) == built
    assert Graph(120, edges) == built


def test_gnp_stream_counter_is_kernel_invariant():
    with_kernels = _stream("inv")
    edges_a = list(gnp_edge_stream(200, 0.05, with_kernels))
    without = _stream("inv")
    with kernels.disabled():
        edges_b = list(gnp_edge_stream(200, 0.05, without))
    assert edges_a == edges_b
    assert with_kernels.counter == without.counter


def test_gnp_legacy_tape_is_preserved():
    """The random.Random path draws one coin per pair in u-major order."""
    edges = list(gnp_edge_stream(40, 0.2, random.Random(5)))
    rng = random.Random(5)
    expected = [
        (u, v)
        for u in range(40)
        for v in range(u + 1, 40)
        if rng.random() < 0.2
    ]
    assert edges == expected
    assert list(gnp_random_graph(40, 0.2, random.Random(5)).edges()) == sorted(
        expected
    )


def test_gnp_edge_cases():
    assert list(gnp_edge_stream(50, 0.0, _stream("zero"))) == []
    complete = list(gnp_edge_stream(10, 1.0, _stream("one")))
    assert len(complete) == 45
    with pytest.raises(ValueError):
        list(gnp_edge_stream(10, 1.5, _stream("bad")))


@pytest.mark.parametrize("rng_factory", [
    lambda: _stream("capped"),
    lambda: random.Random(31),
], ids=["stream", "legacy"])
def test_gnp_with_max_degree_stream_matches_graph(rng_factory):
    edges = list(gnp_with_max_degree_edge_stream(80, 0.2, 5, rng_factory()))
    built = gnp_with_max_degree(80, 0.2, 5, rng_factory())
    assert sorted(edges) == list(built.edges())
    assert built.max_degree() <= 5


def test_configuration_model_stream_matches_graph():
    stream = _stream("social")
    degrees = power_law_degree_sequence(300, 2.3, 12, stream.derive("degrees"))
    graph = configuration_model_graph(degrees, stream.derive("pairing"))
    # The raw stream may carry duplicate stub pairs; the bulk build
    # collapses them to the simple graph of the stream's distinct pairs.
    raw = list(configuration_model_edge_stream(degrees, stream.derive("pairing")))
    assert len(set(map(frozenset, raw))) < len(raw)
    assert list(graph.edges()) == sorted({(min(e), max(e)) for e in raw})
    assert all(graph.degree(v) <= degrees[v] for v in range(300))


def test_configuration_model_legacy_rng_still_works():
    degrees = [2] * 20
    a = configuration_model_graph(degrees, random.Random(8))
    b = configuration_model_graph(degrees, random.Random(8))
    assert a == b and a.m > 0


def test_power_law_degrees_are_kernel_invariant():
    with_kernels = _stream("degs")
    a = power_law_degree_sequence(500, 2.3, 16, with_kernels)
    without = _stream("degs")
    with kernels.disabled():
        b = power_law_degree_sequence(500, 2.3, 16, without)
    assert a == b
    assert with_kernels.counter == without.counter
    assert all(1 <= d <= 16 for d in a)
