"""Every graph builder's output against a plain edge-set model.

Each catalogue entry pairs a builder — a generator, a lower-bound
construction, or the bare constructor — with its edge set written out
test-side, without ``Graph``: closed forms for the structured families
and a re-run of the historical random tape for the random ones.  Every
query of the ``Graph`` contract is then checked against that model on
every entry, so each builder's CSR rows are checked, not just its edges.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from itertools import combinations

import pytest

from repro.graphs import (
    Graph,
    barbell_of_stars,
    c4_gadget_union,
    caterpillar_graph,
    complete_bipartite,
    complete_graph,
    configuration_model_graph,
    cycle_graph,
    disjoint_union,
    gnp_random_graph,
    gnp_with_max_degree,
    grid_graph,
    hypercube_graph,
    path_graph,
    star_graph,
    zec_instance_graph,
)
from repro.lowerbound.repetition import product_game_graph
from repro.rand import kernels


def _path(n, offset=0):
    return {(offset + i, offset + i + 1) for i in range(n - 1)}


def _star(n, offset=0):
    return {(offset, offset + i) for i in range(1, n)}


def _complete(n, offset=0):
    return {(offset + u, offset + v) for u, v in combinations(range(n), 2)}


def _grid(rows, cols):
    right = {(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)}
    down = {(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)}
    return right | down


def _hypercube(d):
    return {(v, v | 1 << b) for v in range(1 << d) for b in range(d) if not v >> b & 1}


def _caterpillar(spine, legs):
    leaves = {(i, spine + i * legs + j) for i in range(spine) for j in range(legs)}
    return _path(spine) | leaves


def _barbell(k, leaves):
    size = leaves + 1
    stars = set().union(*(_star(size, i * size) for i in range(k)))
    return stars | {(i * size, (i + 1) * size) for i in range(k - 1)}


def _c4_gadgets(bits):
    edges = set()
    for i, bit in enumerate(bits):
        a, b, c, d = range(4 * i, 4 * i + 4)
        edges |= {(a, b), (c, d)} | ({(a, d), (b, c)} if bit else {(a, c), (b, d)})
    return edges


def _zec(alice, bob, offset=0):
    return {(offset, offset + 1 + i) for i in alice} | {
        (offset + 1, offset + 1 + j) for j in bob
    }


def _gnp(n, p, seed):
    rng = random.Random(seed)
    return {(u, v) for u, v in combinations(range(n), 2) if rng.random() < p}


def _gnp_capped(n, p, cap, seed):
    rng = random.Random(seed)
    order = list(combinations(range(n), 2))
    rng.shuffle(order)
    deg = [0] * n
    edges = set()
    for u, v in order:
        if rng.random() < p and deg[u] < cap and deg[v] < cap:
            deg[u] += 1
            deg[v] += 1
            edges.add((u, v))
    return edges


def _configuration(degrees, seed):
    stubs = [v for v, d in enumerate(degrees) for _ in range(d)]
    random.Random(seed).shuffle(stubs)
    pairs = zip(stubs[::2], stubs[1::2])
    return {(min(u, v), max(u, v)) for u, v in pairs if u != v}


GADGET_BITS = [0, 1, 1, 0]
GAME_INPUTS = [((1, 2), (3, 5)), ((2, 7), (1, 4))]
DEGREES = [3, 1, 4, 1, 5, 2, 6, 5, 3, 5, 2, 3, 4, 2, 6, 4]

#: name -> (builder, n, model edge set).
CATALOGUE = {
    "empty": (lambda: Graph(0), 0, set()),
    "edgeless": (lambda: Graph(6), 6, set()),
    "path": (lambda: path_graph(7), 7, _path(7)),
    "cycle": (lambda: cycle_graph(7), 7, _path(7) | {(0, 6)}),
    "star": (lambda: star_graph(7), 7, _star(7)),
    "complete": (lambda: complete_graph(6), 6, _complete(6)),
    "complete-bipartite": (
        lambda: complete_bipartite(3, 4),
        7,
        {(u, 3 + v) for u in range(3) for v in range(4)},
    ),
    "grid": (lambda: grid_graph(3, 4), 12, _grid(3, 4)),
    "hypercube": (lambda: hypercube_graph(4), 16, _hypercube(4)),
    "caterpillar": (lambda: caterpillar_graph(4, 2), 12, _caterpillar(4, 2)),
    "barbell-of-stars": (lambda: barbell_of_stars(3, 3), 12, _barbell(3, 3)),
    "c4-gadgets": (lambda: c4_gadget_union(GADGET_BITS), 16, _c4_gadgets(GADGET_BITS)),
    "zec-instance": (lambda: zec_instance_graph((1, 2), (3, 5)), 9, _zec((1, 2), (3, 5))),
    "product-game": (
        lambda: product_game_graph(GAME_INPUTS),
        18,
        set().union(*(_zec(a, b, 9 * t) for t, (a, b) in enumerate(GAME_INPUTS))),
    ),
    "disjoint-union": (
        lambda: disjoint_union([path_graph(4), complete_graph(4), star_graph(3)]),
        11,
        _path(4) | _complete(4, 4) | _star(3, 8),
    ),
    "gnp": (lambda: gnp_random_graph(30, 0.2, random.Random(5)), 30, _gnp(30, 0.2, 5)),
    "gnp-capped": (
        lambda: gnp_with_max_degree(30, 0.4, 4, random.Random(6)),
        30,
        _gnp_capped(30, 0.4, 4, 6),
    ),
    "configuration": (
        lambda: configuration_model_graph(DEGREES, random.Random(8)),
        len(DEGREES),
        _configuration(DEGREES, 8),
    ),
}


@pytest.fixture(params=sorted(CATALOGUE))
def entry(request):
    """``(graph, n, model, rng)`` for one catalogue entry."""
    build, n, model = CATALOGUE[request.param]
    return build(), n, model, random.Random(request.param)


def _rows(n, model):
    rows = [set() for _ in range(n)]
    for u, v in model:
        rows[u].add(v)
        rows[v].add(u)
    return rows


def _random_pairs(n, rng, count):
    if n < 2:
        return set()
    return {tuple(sorted(rng.sample(range(n), 2))) for _ in range(count)}


def test_edges_match_the_model(entry):
    g, n, model, _ = entry
    assert g.n == n and list(g.vertices()) == list(range(n))
    assert g.m == len(model)
    assert list(g.edges()) == sorted(model)
    assert g.edge_list() == sorted(model)


def test_rows_match_the_model(entry):
    g, n, model, _ = entry
    rows = _rows(n, model)
    for v in range(n):
        assert g.neighbors(v) == rows[v]
        assert list(g.iter_neighbors(v)) == sorted(rows[v])
        assert g.degree(v) == len(rows[v])
    assert g.degrees() == [len(row) for row in rows]
    assert g.max_degree() == max(map(len, rows), default=0)


def test_has_edge_matches_the_model(entry):
    g, n, model, _ = entry
    for u in range(n):
        assert [g.has_edge(u, v) for v in range(n)] == [
            (min(u, v), max(u, v)) in model for v in range(n)
        ]
        assert not g.has_edge(u, n)


def test_constructor_ignores_edge_order_and_repeats(entry):
    g, n, model, rng = entry
    stream = [*model, *((v, u) for u, v in model)]
    rng.shuffle(stream)
    rebuilt = Graph(n, iter(stream))
    assert rebuilt == g
    assert rebuilt._indptr.tobytes() == g._indptr.tobytes()
    assert rebuilt._indices.tobytes() == g._indices.tobytes()


def test_induced_subgraph_matches_the_model(entry):
    g, n, model, rng = entry
    inside = {v for v in range(n) if rng.random() < 0.5}
    sub = g.induced_subgraph(inside)
    assert sub.n == n
    assert sub.edge_list() == sorted((u, v) for u, v in model if u in inside and v in inside)
    assert g.m == len(model)  # the source graph is untouched


@pytest.mark.parametrize("mode", ["kernels", "pure"])
def test_split_by_mask_matches_the_model(entry, mode):
    g, n, model, rng = entry
    edges = sorted(model)
    mask = bytes(rng.random() < 0.5 for _ in edges)
    with kernels.disabled() if mode == "pure" else nullcontext():
        ones, zeros = g.split_by_mask(mask)
    assert ones.n == zeros.n == n
    assert ones.edge_list() == [e for e, bit in zip(edges, mask) if bit]
    assert zeros.edge_list() == [e for e, bit in zip(edges, mask) if not bit]


def test_neighbor_queries_match_the_model(entry):
    g, n, model, rng = entry
    rows = _rows(n, model)
    members = frozenset(v for v in range(n) if rng.random() < 0.4)
    coloring = {v: rng.randrange(4) for v in range(n) if rng.random() < 0.6}
    for v in range(n):
        assert g.neighbors_in(v, members) == sorted(rows[v] & members)
        assert g.has_neighbor_in(v, members) == bool(rows[v] & members)
        assert g.neighbor_colors(v, coloring) == {
            coloring[u] for u in rows[v] if u in coloring
        }
    assert g.is_independent_set(members) == all(
        not (u in members and v in members) for u, v in model
    )


def test_mutation_on_a_copy_mirrors_the_model(entry):
    g, n, model, rng = entry
    clone, mirror = g.copy(), set(model)
    for u, v in _random_pairs(n, rng, 20):
        if (u, v) in mirror and rng.random() < 0.6:
            clone.remove_edge(v, u)
            mirror.discard((u, v))
        else:
            assert clone.add_edge(v, u) is ((u, v) not in mirror)
            mirror.add((u, v))
    assert list(clone.edges()) == sorted(mirror)
    assert clone.degrees() == [len(row) for row in _rows(n, mirror)]
    assert clone == Graph(n, mirror)
    assert g == Graph(n, model)  # the original kept its rows


def test_union_and_subgraph_edges_match_the_model(entry):
    g, n, model, rng = entry
    extra = _random_pairs(n, rng, 10)
    assert list(g.union(Graph(n, extra)).edges()) == sorted(model | extra)
    kept = {e for e in model if rng.random() < 0.5}
    assert g.subgraph_edges(kept).edge_list() == sorted(kept)
    assert g.m == len(model)
