"""The ``Graph`` API contract the protocols program against.

Each query is checked against hand-written answers, and the randomized
mirror drives the graph through one operation sequence next to a plain
set of canonical edges, asserting every query agrees with that model.
"""

from __future__ import annotations

import random

import pytest

from repro.graphs import Graph


def test_basic_construction_and_queries():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    assert g.n == 5 and g.m == 3
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert not g.has_edge(0, 9)
    assert g.neighbors(1) == {0, 2}
    assert list(g.iter_neighbors(1)) == [0, 2]
    assert g.degree(1) == 2 and g.degree(3) == 1
    assert g.degrees() == [1, 2, 1, 1, 1]
    assert g.max_degree() == 2
    assert g.edge_list() == [(0, 1), (1, 2), (3, 4)]
    assert list(g.vertices()) == [0, 1, 2, 3, 4]


def test_edges_iterate_in_sorted_canonical_order():
    edges = [(4, 0), (2, 1), (0, 3), (3, 1), (0, 1), (4, 2)]
    g = Graph(5, edges)
    assert list(g.edges()) == sorted((min(e), max(e)) for e in edges)


def test_add_remove_edge_contract():
    g = Graph(3)
    assert g.add_edge(0, 1) is True
    assert g.add_edge(0, 1) is False  # already present
    assert g.add_edge(1, 0) is False  # reversed, already present
    assert g.m == 1
    with pytest.raises(ValueError):
        g.add_edge(0, 0)
    with pytest.raises(ValueError):
        g.add_edge(0, 3)
    g.remove_edge(0, 1)
    assert g.m == 0
    with pytest.raises(KeyError):
        g.remove_edge(0, 1)


def test_edge_streams_reject_self_loops_and_collapse_repeats():
    """The loud-input contract of building from an edge stream.

    Like ``add_edge`` (above), the constructor and ``subgraph_edges``
    reject a self-loop with ``ValueError`` and keep a repeated or
    reversed edge once, from a one-shot iterator as from a list.
    """
    stream = [(0, 1), (1, 0), (2, 3), (0, 1), (3, 2), (1, 2)]
    clean = [(0, 1), (1, 2), (2, 3)]
    for build in (
        lambda edges: Graph(4, iter(edges)),
        lambda edges: Graph(4).subgraph_edges(iter(edges)),
    ):
        built = build(stream)
        assert list(built.edges()) == clean
        assert built.m == 3 and built.degrees() == [1, 2, 2, 1]
        with pytest.raises(ValueError, match="self-loop"):
            build([(0, 1), (3, 3), (1, 2)])


def test_copy_is_independent():
    g = Graph(4, [(0, 1), (2, 3)])
    clone = g.copy()
    assert clone == g
    clone.remove_edge(0, 1)
    assert g.has_edge(0, 1) and not clone.has_edge(0, 1)
    assert g.m == 2 and clone.m == 1


def test_equality_is_structural():
    g = Graph(4, [(0, 1), (1, 2)])
    assert g == Graph(4, [(2, 1), (1, 0)])
    assert g != Graph(4, [(0, 1), (1, 3)])
    assert g != Graph(5, [(0, 1), (1, 2)])
    assert g == Graph(4, [(0, 1), (1, 2)]) and Graph(4, [(0, 1), (1, 2)]) == g


@pytest.mark.parametrize("members", [frozenset({1, 5, 7}), {1, 5, 7}])
def test_neighbors_in(members):
    g = Graph(8, [(0, 1), (0, 2), (0, 5), (3, 4)])
    assert g.neighbors_in(0, members) == [1, 5]
    assert g.neighbors_in(3, members) == []
    assert g.has_neighbor_in(0, members) is True
    assert g.has_neighbor_in(3, members) is False


def test_neighbor_colors():
    g = Graph(5, [(0, 1), (0, 2), (0, 3)])
    assert g.neighbor_colors(0, {1: 7, 3: 9}) == {7, 9}
    assert g.neighbor_colors(4, {0: 1}) == set()


def test_induced_subgraph_keeps_vertex_range():
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
    sub = g.induced_subgraph([1, 2, 3, 4])
    assert sub.n == 6
    assert sub.edge_list() == [(1, 2), (2, 3)]
    assert sub.m == 2


def test_is_independent_set():
    g = Graph(5, [(0, 1), (2, 3)])
    assert g.is_independent_set([0, 2, 4]) is True
    assert g.is_independent_set([0, 1]) is False
    assert g.is_independent_set([]) is True


def test_union_and_subgraph_edges():
    a = Graph(4, [(0, 1)])
    b = Graph(4, [(2, 3)])
    merged = a.union(b)
    assert merged.edge_list() == [(0, 1), (2, 3)]
    assert a.m == 1  # union does not mutate its operands
    sub = merged.subgraph_edges([(1, 0)])
    assert sub.edge_list() == [(0, 1)]


def test_union_rejects_vertex_set_mismatch():
    with pytest.raises(ValueError, match="vertex-set mismatch"):
        Graph(3).union(Graph(4))


def test_split_by_mask_follows_edge_order():
    g = Graph(5, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)])
    ones, zeros = g.split_by_mask(bytes([1, 0, 0, 1, 1]))
    assert ones.edge_list() == [(0, 1), (2, 4), (3, 4)]
    assert zeros.edge_list() == [(0, 2), (1, 3)]
    assert ones.n == zeros.n == 5


def test_degree_queries_track_mutation():
    """degrees()/max_degree() must never answer from a stale cache.

    A stale Δ after add/remove_edge would silently corrupt Δ-dependent
    palette sizes.
    """
    g = Graph(5, [(0, 1), (1, 2)])
    assert g.degrees() == [1, 2, 1, 0, 0]
    assert g.max_degree() == 2
    g.add_edge(1, 3)
    g.add_edge(1, 4)
    assert g.degrees() == [1, 4, 1, 1, 1]
    assert g.max_degree() == 4
    g.remove_edge(1, 2)
    assert g.degrees() == [1, 3, 0, 1, 1]
    assert g.max_degree() == 3
    # The returned list is the caller's to keep, not internal state.
    leaked = g.degrees()
    leaked[0] = 99
    assert g.degrees()[0] == 1
    # A copy starts from the same answers but mutates independently.
    c = g.copy()
    c.add_edge(2, 3)
    assert c.max_degree() == 3 and c.degree(2) == 1
    assert g.max_degree() == 3 and g.degree(2) == 0


def test_empty_and_edgeless_graphs():
    empty = Graph(0)
    assert empty.n == 0 and empty.m == 0
    assert empty.degrees() == [] and empty.max_degree() == 0
    assert list(empty.edges()) == []
    edgeless = Graph(3)
    assert edgeless.max_degree() == 0
    assert edgeless.is_independent_set(range(3))


def test_randomized_operation_mirror():
    """Every query agrees with a plain edge-set model after any operation mix."""
    rng = random.Random(0xB175E7)
    for _ in range(10):
        n = rng.randint(1, 30)
        model = {
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.3
        }
        g = Graph(n, model).copy()
        for _ in range(30):
            u, v = sorted((rng.randrange(n), rng.randrange(n)))
            if u == v:
                continue
            if rng.random() < 0.5:
                assert g.add_edge(v, u) is ((u, v) not in model)
                model.add((u, v))
            elif (u, v) in model:
                model.discard((u, v))
                g.remove_edge(v, u)
        edges = sorted(model)
        neighbors = [
            {w for e in model if v in e for w in e if w != v} for v in range(n)
        ]
        assert g.m == len(edges)
        assert list(g.edges()) == edges
        assert g.degrees() == [len(row) for row in neighbors]
        assert g.max_degree() == max(map(len, neighbors))
        sample = [v for v in range(n) if rng.random() < 0.5]
        inside = frozenset(sample)
        assert g.is_independent_set(sample) == all(
            not (u in inside and v in inside) for u, v in edges
        )
        assert g.induced_subgraph(sample).edge_list() == [
            (u, v) for u, v in edges if u in inside and v in inside
        ]
        for v in range(n):
            assert [g.has_edge(v, u) for u in range(n)] == [
                (min(u, v), max(u, v)) in model for u in range(n)
            ]
            assert list(g.iter_neighbors(v)) == sorted(neighbors[v])
            assert g.neighbors(v) == neighbors[v]
            assert g.neighbors_in(v, inside) == sorted(neighbors[v] & inside)
            assert g.has_neighbor_in(v, inside) == bool(neighbors[v] & inside)
