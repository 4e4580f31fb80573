"""Tests for the D1LC protocol (Lemma 3.3)."""

from __future__ import annotations

import random

import pytest

from repro.comm import TRANSPORTS
from repro.rand import Stream
from repro.core import d1lc_proto, sample_list_size, sparsity_threshold
from repro.core.d1lc import SAMPLE_FACTOR
from repro.graphs import Graph, gnp_random_graph, is_proper_list_coloring, partition_random


def make_d1lc_instance(rng, n, p):
    """A random valid two-party D1LC instance.

    Built like the paper's leftover instances: start from the full palette
    ``[Δ+1]`` and strike out at most ``Δ − deg(v)`` colors at each vertex
    (split arbitrarily between the two sides), which preserves both
    ``|Ψ_A ∩ Ψ_B| ≥ deg + 1`` and the slack precondition
    ``|Ψ_A| + |Ψ_B| ≥ m + 1``.
    """
    g = gnp_random_graph(n, p, rng)
    delta = g.max_degree()
    m = delta + 1
    part = partition_random(g, rng)
    palette = set(range(1, m + 1))
    lists_a, lists_b = {}, {}
    for v in g.vertices():
        budget = rng.randint(0, delta - g.degree(v))
        drops = rng.sample(sorted(palette), budget)
        cut = rng.randint(0, budget)
        lists_a[v] = palette - set(drops[:cut])
        lists_b[v] = palette - set(drops[cut:])
    return g, part, lists_a, lists_b, m


def run_d1lc(part, lists_a, lists_b, active, m, seed=0):
    pub_a, pub_b = Stream.from_seed(seed), Stream.from_seed(seed)
    rng_a = Stream.from_seed(seed).derive_random("a")
    rng_b = Stream.from_seed(seed).derive_random("b")
    a, b, t = TRANSPORTS["count"].run(
        (d1lc_proto, "alice", part.alice_graph, lists_a, active, m, pub_a, rng_a),
        (d1lc_proto, "bob", part.bob_graph, lists_b, active, m, pub_b, rng_b),
    )
    assert a == b, "the D1LC coloring must be common knowledge"
    return a, t


class TestSizingHelpers:
    def test_sample_list_size_grows_polylog(self):
        assert sample_list_size(2) >= 4
        assert sample_list_size(10**6) < 10**3
        assert sample_list_size(1 << 16) > sample_list_size(1 << 4)

    def test_sparsity_threshold_superlinear(self):
        assert sparsity_threshold(1000) > 1000

    def test_sample_factor_positive(self):
        assert SAMPLE_FACTOR > 0


class TestProtocol:
    def test_colors_leftover_style_instances(self, rng):
        for _ in range(15):
            n = rng.randint(2, 25)
            g, part, la, lb, m = make_d1lc_instance(rng, n, rng.random() * 0.4)
            if not _valid_instance(g, la, lb, m):
                continue
            active = list(g.vertices())
            colors, t = run_d1lc(part, la, lb, active, m, seed=rng.randint(0, 99))
            merged = {v: la[v] & lb[v] for v in g.vertices()}
            assert is_proper_list_coloring(g, colors, merged)

    def test_full_palette_instance(self, rng):
        g = gnp_random_graph(20, 0.3, rng)
        m = g.max_degree() + 1
        part = partition_random(g, rng)
        palette = set(range(1, m + 1))
        lists = {v: set(palette) for v in g.vertices()}
        colors, _ = run_d1lc(part, lists, lists, list(g.vertices()), m)
        assert is_proper_list_coloring(g, colors, lists)

    def test_empty_active_set(self, rng):
        g = gnp_random_graph(5, 0.5, rng)
        part = partition_random(g, rng)
        colors, t = run_d1lc(part, {}, {}, [], g.max_degree() + 1)
        assert colors == {}
        assert t.rounds == 0

    def test_subset_active(self, rng):
        # Only a subset of the vertices is uncolored; the protocol must
        # restrict itself to the induced instance.
        g = Graph(6, [(0, 1), (1, 2), (3, 4)])
        part = partition_random(g, rng)
        active = [0, 1, 2]
        sub_a = part.alice_graph.subgraph_edges(
            [(u, v) for u, v in part.alice_graph.edges() if u in active and v in active]
        )
        sub_b = part.bob_graph.subgraph_edges(
            [(u, v) for u, v in part.bob_graph.edges() if u in active and v in active]
        )
        m = 3
        lists = {v: {1, 2, 3} for v in active}
        pub_a, pub_b = Stream.from_seed(1), Stream.from_seed(1)
        a, b, _ = TRANSPORTS["count"].run(
            (d1lc_proto, "alice", sub_a, lists, active, m, pub_a, random.Random(1)),
            (d1lc_proto, "bob", sub_b, lists, active, m, pub_b, random.Random(1)),
        )
        assert set(a) == set(active)
        assert a[0] != a[1] and a[1] != a[2]

    def test_rejects_bad_role(self, rng):
        g = gnp_random_graph(3, 0.5, rng)
        with pytest.raises(ValueError):
            TRANSPORTS["count"].run(
                (d1lc_proto, "carol", g, {v: {1} for v in g.vertices()}, [0], 1,
                 Stream.from_seed(0), rng),
                (d1lc_proto, "carol", g, {v: {1} for v in g.vertices()}, [0], 1,
                 Stream.from_seed(0), rng),
            )

    def test_round_complexity_logarithmic_in_delta(self, rng):
        g = gnp_random_graph(30, 0.4, rng)
        m = g.max_degree() + 1
        part = partition_random(g, rng)
        palette = set(range(1, m + 1))
        lists = {v: set(palette) for v in g.vertices()}
        _, t = run_d1lc(part, lists, lists, list(g.vertices()), m)
        import math

        assert t.rounds <= 3 * math.log2(m + 1) + 12


def _valid_instance(g, la, lb, m):
    """Check the D1LC + slack preconditions the protocol documents."""
    for v in g.vertices():
        if len(la[v] & lb[v]) < g.degree(v) + 1:
            return False
        if len(la[v]) + len(lb[v]) < m + 1:
            return False
    return True
