"""White-box tests for D1LC protocol internals and its fallback path."""

from __future__ import annotations

import random

import pytest

from repro.comm import TRANSPORTS
from repro.rand import Stream
from repro.core import d1lc_proto
from repro.core.d1lc import _induced_on, _pack_colors, _unpack_colors
from repro.graphs import Graph, gnp_random_graph, is_proper_list_coloring, partition_random


class TestPacking:
    def test_pack_unpack_round_trip(self):
        active = [3, 7, 9]
        colors = {7: 2, 3: 5, 9: 1}
        packed = _pack_colors(colors, active)
        assert packed == (5, 2, 1)
        assert _unpack_colors(packed, active) == colors

    def test_pack_none(self):
        assert _pack_colors(None, [1, 2]) is None


class TestInducedOn:
    def test_relabels_and_filters(self):
        g = Graph(6, [(0, 1), (1, 4), (4, 5), (2, 3)])
        induced = _induced_on(g, [1, 4, 5])
        assert induced.n == 3
        assert induced.edge_list() == [(0, 1), (1, 2)]

    def test_empty_active(self):
        g = Graph(3, [(0, 1)])
        induced = _induced_on(g, [])
        assert induced.n == 0 and induced.m == 0


class TestForcedFallback:
    def test_fallback_path_still_correct(self, rng, monkeypatch):
        """Force Step 4 by making the sparsity threshold reject everything."""
        import repro.core.d1lc as d1lc_module

        monkeypatch.setattr(d1lc_module, "sparsity_threshold", lambda n: -1)

        g = gnp_random_graph(18, 0.3, rng)
        m = g.max_degree() + 1
        part = partition_random(g, rng)
        palette = set(range(1, m + 1))
        lists = {v: set(palette) for v in g.vertices()}
        active = list(g.vertices())
        a, b, t = TRANSPORTS["count"].run(
            (d1lc_proto, "alice", part.alice_graph, lists, active, m,
             Stream.from_seed(3), random.Random(3)),
            (d1lc_proto, "bob", part.bob_graph, lists, active, m, Stream.from_seed(3),
             random.Random(3)),
        )
        assert a == b
        assert is_proper_list_coloring(g, a, lists)
        # The fallback ships Bob's full instance: strictly more Bob→Alice
        # traffic than the colors Alice returns for tiny instances is not
        # guaranteed, but both directions must be non-trivial.
        assert t.bits_bob_to_alice > 0
        assert t.bits_alice_to_bob > 0

    def test_fallback_costs_more_than_sparsified_path(self, rng, monkeypatch):
        import repro.core.d1lc as d1lc_module

        g = gnp_random_graph(24, 0.4, rng)
        m = g.max_degree() + 1
        part = partition_random(g, rng)
        palette = set(range(1, m + 1))
        lists = {v: set(palette) for v in g.vertices()}
        active = list(g.vertices())

        def run():
            _, _, t = TRANSPORTS["count"].run(
                (d1lc_proto, "alice", part.alice_graph, lists, active, m,
                 Stream.from_seed(4), random.Random(4)),
                (d1lc_proto, "bob", part.bob_graph, lists, active, m,
                 Stream.from_seed(4), random.Random(4)),
            )
            return t.total_bits

        normal = run()
        monkeypatch.setattr(d1lc_module, "sparsity_threshold", lambda n: -1)
        fallback = run()
        assert fallback > normal


class TestValidation:
    def test_rejects_unknown_role(self, rng):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            TRANSPORTS["count"].run(
                (d1lc_proto, "eve", g, {0: {1}, 1: {1}}, [0, 1], 2, Stream.from_seed(0),
                 rng),
                (d1lc_proto, "eve", g, {0: {1}, 1: {1}}, [0, 1], 2, Stream.from_seed(0),
                 rng),
            )
