"""Unit tests for the CSR layout behind ``Graph``.

Mutation (in-row removals, rebuilding additions) and the drivers'
promise never to add an edge, the numpy/pure build-parity guarantee,
and the confirmation bits of ``repro.core.probes``, read off
``Graph.gather_rows``, checked against their definition.
"""

from __future__ import annotations

import random

import pytest

from repro.core import run_vertex_coloring
from repro.engine import build_partition, run_scenario, smoke_scenarios
from repro.graphs import (
    Graph,
    assert_proper_vertex_coloring,
    gnp_random_graph,
)
from repro.rand import kernels


def test_basic_construction_and_queries():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    assert g.n == 5 and g.m == 3
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.neighbors(1) == {0, 2}
    assert list(g.iter_neighbors(1)) == [0, 2]
    assert g.degree(1) == 2 and g.degree(3) == 1
    assert g.degrees() == [1, 2, 1, 1, 1]
    assert g.max_degree() == 2
    assert g.edge_list() == [(0, 1), (1, 2), (3, 4)]
    assert repr(g) == "Graph(n=5, m=3, max_degree=2)"


def test_duplicate_and_reversed_input_edges_collapse():
    g = Graph(4, [(0, 1), (1, 0), (2, 3), (0, 1)])
    assert g.m == 2
    assert g.edge_list() == [(0, 1), (2, 3)]


def test_queries_are_plain_python_ints():
    g = Graph(4, [(0, 1), (1, 2)])
    assert all(type(v) is int for v in g.degrees())
    assert all(type(x) is int for e in g.edges() for x in e)
    assert all(type(u) is int for u in g.iter_neighbors(1))


def test_add_remove_edge_contract():
    g = Graph(3)
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
    g = Graph(6, [(0, 1), (0, 2), (2, 3)])
    g.remove_edge(0, 2)  # leaves slack in rows 0 and 2
    assert g.add_edge(5, 0) is True
    reference = Graph(6, [(0, 1), (0, 5), (2, 3)])
    assert g._indptr.tobytes() == reference._indptr.tobytes()
    assert g._indices.tobytes() == reference._indices.tobytes()
    assert list(g._deg) == list(reference._deg)
    assert g.m == 3 and g.max_degree() == 2


def test_remove_edge_shifts_row_in_place():
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    g.remove_edge(0, 2)
    assert g.degree(0) == 3 and g.m == 3
    assert list(g.iter_neighbors(0)) == [1, 3, 4]
    assert not g.has_edge(0, 2) and not g.has_edge(2, 0)
    assert g.degree(2) == 0


def test_max_degree_cache_invalidates_on_mutation():
    g = Graph(4, [(0, 1)])
    assert g.max_degree() == 1
    g.add_edge(0, 2)
    assert g.max_degree() == 2
    g.add_edge(0, 3)
    assert g.max_degree() == 3
    g.remove_edge(0, 1)
    g.remove_edge(0, 2)
    assert g.max_degree() == 1


def test_copy_is_independent():
    g = Graph(4, [(0, 1), (2, 3)])
    g.add_edge(1, 2)
    g.remove_edge(2, 3)  # leave removal slack at copy time
    c = g.copy()
    assert c == g
    c.add_edge(0, 3)
    g.remove_edge(0, 1)
    assert c.has_edge(0, 3) and not g.has_edge(0, 3)
    assert c.has_edge(0, 1)  # the copy kept the edge g dropped


def test_constructor_validates_every_edge():
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, [(0, 1), (0, 3)])
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError, match="non-negative"):
        Graph(-1)
    g = Graph(3, [(0, 1), (1, 2), (0, 1)])
    assert g.m == 2 and g.edge_list() == [(0, 1), (1, 2)]


def test_constructor_consumes_a_generator():
    g = Graph(6, ((u, u + 1) for u in range(5)))
    assert g.m == 5 and g.max_degree() == 2


def test_empty_graph():
    g = Graph(0)
    assert g.n == 0 and g.m == 0
    assert g.degrees() == [] and g.max_degree() == 0
    assert list(g.edges()) == []


def test_numpy_and_pure_builds_are_byte_identical():
    rng = random.Random(17)
    edges = list(gnp_random_graph(80, 0.3, rng).edges())
    assert len(edges) >= 1024 / 2  # enough directed entries to hit numpy
    with_np = Graph(80, edges)
    with kernels.disabled():
        without_np = Graph(80, edges)
    assert with_np._indptr == without_np._indptr
    assert with_np._indices == without_np._indices
    assert with_np == without_np


def test_confirmation_bits_matches_its_definition():
    from repro.core.probes import confirmation_bits

    rng = random.Random(9)
    g = gnp_random_graph(40, 0.15, rng)
    awake = [v for v in range(40) if v % 3 != 0]
    picks = ([1, 2, 3] * 40)[: len(awake)]
    pick = dict(zip(awake, picks))  # a sleeping vertex has no pick
    bits = confirmation_bits(*g.gather_rows(awake), awake, picks)
    assert bits == tuple(
        all(pick[u] != pick[v] for u in g.neighbors(v) if u in pick)
        for v in awake
    )
    assert False in bits


def test_induced_subgraph_and_subgraph_edges_match_edge_filters():
    rng = random.Random(13)
    g = gnp_random_graph(25, 0.25, rng)
    keep = set(range(0, 25, 2))
    assert g.induced_subgraph(keep).edge_list() == [
        (u, v) for u, v in g.edges() if u in keep and v in keep
    ]
    some = [e for i, e in enumerate(g.edges()) if i % 2 == 0]
    assert g.subgraph_edges(some).edge_list() == some


def test_randomized_mirror_against_an_edge_set():
    """Drive one graph through a long op sequence; all queries match a set of edges."""
    rng = random.Random(321)
    n = 24
    g = Graph(n)
    model: set[tuple[int, int]] = set()
    for _ in range(600):
        u, v = sorted((rng.randrange(n), rng.randrange(n)))
        if u == v:
            continue
        op = rng.random()
        if op < 0.55:
            assert g.add_edge(v, u) == ((u, v) not in model)
            model.add((u, v))
        elif op < 0.75 and (u, v) in model:
            g.remove_edge(v, u)
            model.discard((u, v))
        else:
            assert g.has_edge(u, v) == ((u, v) in model)
            assert g.degree(u) == sum(u in e for e in model)
            assert g.neighbors(v) == {w for e in model if v in e for w in e} - {v}
    assert g.m == len(model)
    assert g.degrees() == [sum(v in e for e in model) for v in range(n)]
    assert g.max_degree() == max(g.degrees())
    assert list(g.edges()) == sorted(model)
    assert g == Graph(n, model)
    members = frozenset(range(0, n, 3))
    for v in range(n):
        inside = sorted(
            w for e in model if v in e for w in e if w != v and w in members
        )
        assert g.neighbors_in(v, members) == inside
        assert g.has_neighbor_in(v, members) == bool(inside)


SMOKE = smoke_scenarios()


@pytest.fixture
def add_edge_refused(monkeypatch):
    """``Graph.add_edge`` raises: its O(n + m) rebuild has no protocol caller."""

    def refuse(self, u, v):
        raise AssertionError(f"add_edge({u}, {v}) called on a graph")

    monkeypatch.setattr(Graph, "add_edge", refuse)


@pytest.mark.usefixtures("add_edge_refused")
@pytest.mark.parametrize("scenario", SMOKE, ids=lambda s: s.coordinate)
def test_drivers_never_add_edges(scenario):
    assert run_scenario(scenario)["valid"]


@pytest.mark.usefixtures("add_edge_refused")
def test_d1lc_leftover_never_adds_edges():
    # With no trial iterations every vertex is left over, so Lemma 3.3's
    # D1LC list-colors the graph induced on the whole vertex set.
    part = build_partition(next(s for s in SMOKE if s.protocol == "vertex"))
    result = run_vertex_coloring(part, seed=1, max_trial_iterations=0)
    assert result.leftover_size == part.n
    assert_proper_vertex_coloring(part.graph, result.colors, result.num_colors)
