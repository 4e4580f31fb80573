"""Unit tests for the CSR graph backend.

Contract checks against the set backend, mutation (in-row removals,
rebuilding additions) and the drivers' promise never to add an edge, the
numpy/pure build-parity guarantee, and the backend-native confirmation
sweep that ``repro.core.probes`` dispatches to.
"""

from __future__ import annotations

import random

import pytest

from repro.core import run_vertex_coloring
from repro.engine import build_partition, run_scenario, smoke_scenarios
from repro.graphs import (
    CSRGraph,
    GRAPH_BACKENDS,
    Graph,
    GraphBuilder,
    as_backend,
    assert_proper_vertex_coloring,
    from_edge_stream,
    gnp_random_graph,
)
from repro.rand import kernels


def test_csr_is_a_registered_backend():
    assert GRAPH_BACKENDS["csr"] is CSRGraph


def test_basic_construction_and_queries():
    g = CSRGraph(5, [(0, 1), (1, 2), (3, 4)])
    assert g.n == 5 and g.m == 3
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.neighbors(1) == {0, 2}
    assert list(g.iter_neighbors(1)) == [0, 2]
    assert g.degree(1) == 2 and g.degree(3) == 1
    assert g.degrees() == [1, 2, 1, 1, 1]
    assert g.max_degree() == 2
    assert g.edge_list() == [(0, 1), (1, 2), (3, 4)]
    assert repr(g).startswith("CSRGraph(")


def test_duplicate_and_reversed_input_edges_collapse():
    g = CSRGraph(4, [(0, 1), (1, 0), (2, 3), (0, 1)])
    assert g.m == 2
    assert g.edge_list() == [(0, 1), (2, 3)]


def test_queries_are_plain_python_ints():
    g = CSRGraph(4, [(0, 1), (1, 2)])
    assert all(type(v) is int for v in g.degrees())
    assert all(type(x) is int for e in g.edges() for x in e)
    assert all(type(u) is int for u in g.iter_neighbors(1))


def test_add_remove_edge_contract():
    g = CSRGraph(3)
    assert g.add_edge(0, 1) is True
    assert g.add_edge(1, 0) is False  # already present, reversed
    with pytest.raises(ValueError):
        g.add_edge(0, 0)
    with pytest.raises(ValueError):
        g.add_edge(0, 3)
    g.remove_edge(0, 1)
    assert g.m == 0
    with pytest.raises(KeyError):
        g.remove_edge(0, 1)


def test_add_edge_rebuilds_compact_arrays():
    g = CSRGraph(6, [(0, 1), (0, 2), (2, 3)])
    g.remove_edge(0, 2)  # leaves slack in rows 0 and 2
    assert g.add_edge(5, 0) is True
    reference = from_edge_stream(6, [(0, 1), (0, 5), (2, 3)])
    assert g._indptr.tobytes() == reference._indptr.tobytes()
    assert g._indices.tobytes() == reference._indices.tobytes()
    assert list(g._deg) == list(reference._deg)
    assert g.m == 3 and g.max_degree() == 2


def test_remove_edge_shifts_row_in_place():
    g = CSRGraph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    g.remove_edge(0, 2)
    assert g.degree(0) == 3 and g.m == 3
    assert list(g.iter_neighbors(0)) == [1, 3, 4]
    assert not g.has_edge(0, 2) and not g.has_edge(2, 0)
    assert g.degree(2) == 0


def test_max_degree_cache_invalidates_on_mutation():
    g = CSRGraph(4, [(0, 1)])
    assert g.max_degree() == 1
    g.add_edge(0, 2)
    assert g.max_degree() == 2
    g.add_edge(0, 3)
    assert g.max_degree() == 3
    g.remove_edge(0, 1)
    g.remove_edge(0, 2)
    assert g.max_degree() == 1


def test_copy_is_independent():
    g = CSRGraph(4, [(0, 1), (2, 3)])
    g.add_edge(1, 2)
    g.remove_edge(2, 3)  # leave removal slack at copy time
    c = g.copy()
    assert c == g
    c.add_edge(0, 3)
    g.remove_edge(0, 1)
    assert c.has_edge(0, 3) and not g.has_edge(0, 3)
    assert c.has_edge(0, 1)  # the copy kept the edge g dropped


def test_graph_builder_validates_eagerly():
    b = GraphBuilder(3)
    with pytest.raises(ValueError):
        b.add(0, 3)
    with pytest.raises(ValueError):
        b.add(1, 1)
    with pytest.raises(ValueError):
        GraphBuilder(-1)
    b.extend([(0, 1), (1, 2), (0, 1)])
    g = b.to_graph()
    assert g.m == 2 and g.edge_list() == [(0, 1), (1, 2)]


def test_from_edge_stream_consumes_a_generator():
    g = from_edge_stream(6, ((u, u + 1) for u in range(5)))
    assert g.m == 5 and g.max_degree() == 2


def test_empty_graph():
    g = CSRGraph(0)
    assert g.n == 0 and g.m == 0
    assert g.degrees() == [] and g.max_degree() == 0
    assert list(g.edges()) == []


def test_numpy_and_pure_builds_are_byte_identical():
    rng = random.Random(17)
    edges = list(gnp_random_graph(80, 0.3, rng).edges())
    assert len(edges) >= 1024 / 2  # enough directed entries to hit numpy
    with_np = CSRGraph(80, edges)
    with kernels.disabled():
        without_np = CSRGraph(80, edges)
    assert with_np._indptr == without_np._indptr
    assert with_np._indices == without_np._indices
    assert with_np == without_np


def test_as_backend_round_trip():
    rng = random.Random(5)
    g = gnp_random_graph(30, 0.2, rng)
    c = as_backend(g, "csr")
    assert isinstance(c, CSRGraph)
    assert c == g and list(c.edges()) == list(g.edges())
    back = as_backend(c, "set")
    assert type(back) is Graph and back == g


def test_confirmation_bits_matches_generic_probe_path():
    from repro.core.probes import confirmation_bits

    rng = random.Random(9)
    g = gnp_random_graph(40, 0.15, rng)
    c = as_backend(g, "csr")
    awake = [v for v in range(40) if v % 3 != 0]
    chosen = {v: color for v, color in zip(awake, [1, 2, 3] * 40)}
    assert confirmation_bits(c, awake, chosen) == confirmation_bits(
        g, awake, chosen
    )
    assert c.confirmation_bits(awake, chosen) == confirmation_bits(
        g, awake, chosen
    )


def test_induced_subgraph_and_subgraph_edges_parity():
    rng = random.Random(13)
    g = gnp_random_graph(25, 0.25, rng)
    c = as_backend(g, "csr")
    keep = set(range(0, 25, 2))
    assert c.induced_subgraph(keep) == g.induced_subgraph(keep)
    some = [e for i, e in enumerate(g.edges()) if i % 2 == 0]
    assert c.subgraph_edges(some) == g.subgraph_edges(some)


def test_randomized_mirror_against_set_backend():
    """Drive Graph and CSRGraph through one op sequence; all queries agree."""
    rng = random.Random(321)
    n = 24
    ref = Graph(n)
    csr = CSRGraph(n)
    for _ in range(600):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        op = rng.random()
        if op < 0.55:
            assert ref.add_edge(u, v) == csr.add_edge(u, v)
        elif op < 0.75 and ref.has_edge(u, v):
            ref.remove_edge(u, v)
            csr.remove_edge(u, v)
        else:
            assert ref.has_edge(u, v) == csr.has_edge(u, v)
            assert ref.degree(u) == csr.degree(u)
            assert ref.neighbors(v) == csr.neighbors(v)
    assert ref.m == csr.m
    assert ref.degrees() == csr.degrees()
    assert ref.max_degree() == csr.max_degree()
    assert list(ref.edges()) == list(csr.edges())
    assert ref == csr
    packed = csr.pack_vertices(range(0, n, 3))
    for v in range(n):
        assert csr.has_neighbor_in(v, packed) == ref.has_neighbor_in(v, packed)
        assert csr.neighbors_in(v, packed) == ref.neighbors_in(v, packed)


CSR_SMOKE = [s for s in smoke_scenarios() if s.backend == "csr"]


@pytest.fixture
def add_edge_refused(monkeypatch):
    """``CSRGraph.add_edge`` raises: its O(n + m) rebuild has no protocol caller."""

    def refuse(self, u, v):
        raise AssertionError(f"add_edge({u}, {v}) called on a CSR graph")

    monkeypatch.setattr(CSRGraph, "add_edge", refuse)


@pytest.mark.usefixtures("add_edge_refused")
@pytest.mark.parametrize("scenario", CSR_SMOKE, ids=lambda s: s.coordinate)
def test_drivers_never_add_edges_to_csr_graphs(scenario):
    assert run_scenario(scenario)["valid"]


@pytest.mark.usefixtures("add_edge_refused")
def test_d1lc_leftover_never_adds_edges_to_csr_graphs():
    # With no trial iterations every vertex is left over, so Lemma 3.3's
    # D1LC list-colors the graph induced on the whole vertex set.
    part = build_partition(next(s for s in CSR_SMOKE if s.protocol == "vertex"))
    result = run_vertex_coloring(part, seed=1, max_trial_iterations=0)
    assert result.leftover_size == part.n
    assert_proper_vertex_coloring(part.graph, result.colors, result.num_colors)
