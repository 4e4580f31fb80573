"""The ``Graph`` API contract, checked on every registered backend.

Every backend in ``GRAPH_BACKENDS`` stands in for the reference
dict-of-sets graph inside the protocols, so each must answer the same
queries the same way and keep its type through the graph-producing
operations.  The randomized mirror drives each backend through one
operation sequence next to a plain dict-of-sets model and asserts every
query agrees — the API-level complement to the protocol-level parity
suite in ``test_backend_parity.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.graphs import (
    GRAPH_BACKENDS,
    Graph,
    as_backend,
    from_edge_stream,
    gnp_random_graph,
)


@pytest.fixture(params=sorted(GRAPH_BACKENDS))
def backend(request):
    return request.param


def _make(backend, n, edges=()):
    return GRAPH_BACKENDS[backend](n, edges)


def test_backend_registry():
    assert set(GRAPH_BACKENDS) == {"set", "csr"}
    assert GRAPH_BACKENDS["set"] is Graph
    assert all(issubclass(cls, Graph) for cls in GRAPH_BACKENDS.values())


def test_as_backend_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown graph backend"):
        as_backend(Graph(3), "quantum")


def test_basic_construction_and_queries(backend):
    g = _make(backend, 5, [(0, 1), (1, 2), (3, 4)])
    assert type(g) is GRAPH_BACKENDS[backend]
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


def test_edges_iterate_in_sorted_canonical_order(backend):
    edges = [(4, 0), (2, 1), (0, 3), (3, 1), (0, 1), (4, 2)]
    g = _make(backend, 5, edges)
    assert list(g.edges()) == sorted((min(e), max(e)) for e in edges)


def test_add_remove_edge_contract(backend):
    g = _make(backend, 3)
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


def test_edge_streams_reject_self_loops_and_collapse_repeats(backend):
    """The loud-input contract of building from an edge stream.

    Like ``add_edge`` (above), the constructor and ``from_edge_stream``
    reject a self-loop with ``ValueError`` and keep a repeated or
    reversed edge once.
    """
    stream = [(0, 1), (1, 0), (2, 3), (0, 1), (3, 2), (1, 2)]
    clean = [(0, 1), (1, 2), (2, 3)]
    for build in (
        lambda edges: _make(backend, 4, iter(edges)),
        lambda edges: as_backend(from_edge_stream(4, iter(edges)), backend),
    ):
        built = build(stream)
        assert type(built) is GRAPH_BACKENDS[backend]
        assert list(built.edges()) == clean
        assert built.m == 3 and built.degrees() == [1, 2, 2, 1]
        with pytest.raises(ValueError, match="self-loop"):
            build([(0, 1), (3, 3), (1, 2)])


def test_copy_is_independent(backend):
    g = _make(backend, 4, [(0, 1), (2, 3)])
    clone = g.copy()
    assert type(clone) is type(g) and clone == g
    clone.remove_edge(0, 1)
    assert g.has_edge(0, 1) and not clone.has_edge(0, 1)
    assert g.m == 2 and clone.m == 1


def test_equality_is_structural(backend):
    g = _make(backend, 4, [(0, 1), (1, 2)])
    assert g == _make(backend, 4, [(2, 1), (1, 0)])
    assert g != _make(backend, 4, [(0, 1), (1, 3)])
    assert g != _make(backend, 5, [(0, 1), (1, 2)])
    assert g == Graph(4, [(0, 1), (1, 2)]) and Graph(4, [(0, 1), (1, 2)]) == g


def test_cross_backend_equality_and_conversion(backend):
    edges = [(0, 1), (1, 2), (0, 3)]
    g = _make(backend, 4, edges)
    assert as_backend(g, backend) is g
    for other in GRAPH_BACKENDS:
        converted = as_backend(g, other)
        assert type(converted) is GRAPH_BACKENDS[other]
        assert converted == g and g == converted
        assert list(converted.edges()) == list(g.edges())
        assert type(as_backend(converted, backend)) is type(g)


def test_pack_and_neighbors_in(backend):
    g = _make(backend, 8, [(0, 1), (0, 2), (0, 5), (3, 4)])
    packed = g.pack_vertices([1, 5, 7])
    assert g.neighbors_in(0, packed) == [1, 5]
    assert g.neighbors_in(3, packed) == []
    assert g.has_neighbor_in(0, packed) is True
    assert g.has_neighbor_in(3, packed) is False


def test_neighbor_colors(backend):
    g = _make(backend, 5, [(0, 1), (0, 2), (0, 3)])
    assert g.neighbor_colors(0, {1: 7, 3: 9}) == {7, 9}
    assert g.neighbor_colors(4, {0: 1}) == set()


def test_induced_subgraph_keeps_vertex_range(backend):
    g = _make(backend, 6, [(0, 1), (1, 2), (2, 3), (4, 5)])
    sub = g.induced_subgraph([1, 2, 3, 4])
    assert type(sub) is type(g)
    assert sub.n == 6
    assert sub.edge_list() == [(1, 2), (2, 3)]
    assert sub.m == 2


def test_is_independent_set(backend):
    g = _make(backend, 5, [(0, 1), (2, 3)])
    assert g.is_independent_set([0, 2, 4]) is True
    assert g.is_independent_set([0, 1]) is False
    assert g.is_independent_set([]) is True


def test_union_and_subgraph_edges_preserve_backend(backend):
    a = _make(backend, 4, [(0, 1)])
    b = _make(backend, 4, [(2, 3)])
    merged = a.union(b)
    assert type(merged) is type(a)
    assert merged.edge_list() == [(0, 1), (2, 3)]
    assert a.m == 1  # union does not mutate its operands
    sub = merged.subgraph_edges([(1, 0)])
    assert type(sub) is type(a)
    assert sub.edge_list() == [(0, 1)]


def test_union_rejects_vertex_set_mismatch(backend):
    with pytest.raises(ValueError, match="vertex-set mismatch"):
        _make(backend, 3).union(_make(backend, 4))


def test_split_by_mask_follows_edge_order(backend):
    g = _make(backend, 5, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)])
    ones, zeros = g.split_by_mask(bytes([1, 0, 0, 1, 1]))
    assert type(ones) is type(g) and type(zeros) is type(g)
    assert ones.edge_list() == [(0, 1), (2, 4), (3, 4)]
    assert zeros.edge_list() == [(0, 2), (1, 3)]
    assert ones.n == zeros.n == 5


def test_degree_queries_track_mutation(backend):
    """degrees()/max_degree() must never answer from a stale cache.

    A stale Δ after add/remove_edge would silently corrupt Δ-dependent
    palette sizes.
    """
    g = _make(backend, 5, [(0, 1), (1, 2)])
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


def test_empty_and_edgeless_graphs(backend):
    empty = _make(backend, 0)
    assert empty.n == 0 and empty.m == 0
    assert empty.degrees() == [] and empty.max_degree() == 0
    assert list(empty.edges()) == []
    edgeless = _make(backend, 3)
    assert edgeless.max_degree() == 0
    assert edgeless.is_independent_set(range(3))


def test_randomized_operation_mirror(backend):
    """Every query agrees with a dict-of-sets model after any operation mix."""
    rng = random.Random(0xB175E7)
    for _ in range(10):
        n = rng.randint(1, 30)
        seed_graph = gnp_random_graph(n, rng.random() * 0.6, rng)
        model = {v: set(seed_graph.neighbors(v)) for v in range(n)}
        g = as_backend(seed_graph, backend).copy()
        for _ in range(30):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            if rng.random() < 0.5:
                fresh = v not in model[u]
                model[u].add(v)
                model[v].add(u)
                assert g.add_edge(u, v) is fresh
            elif v in model[u]:
                model[u].discard(v)
                model[v].discard(u)
                g.remove_edge(u, v)
        edges = sorted((u, v) for u in model for v in model[u] if u < v)
        assert g.m == len(edges)
        assert list(g.edges()) == edges
        assert g.degrees() == [len(model[v]) for v in range(n)]
        assert g.max_degree() == max(len(s) for s in model.values())
        sample = [v for v in range(n) if rng.random() < 0.5]
        inside = set(sample)
        assert g.is_independent_set(sample) == all(
            not (model[v] & inside) for v in inside
        )
        assert g.induced_subgraph(sample).edge_list() == [
            (u, v) for u, v in edges if u in inside and v in inside
        ]
        packed = g.pack_vertices(sample)
        for v in range(n):
            assert list(g.iter_neighbors(v)) == sorted(model[v])
            assert g.neighbors(v) == model[v]
            assert g.neighbors_in(v, packed) == sorted(model[v] & inside)
            assert g.has_neighbor_in(v, packed) == bool(model[v] & inside)
