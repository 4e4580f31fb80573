"""Tests for the graph generators."""

from __future__ import annotations

import random

import pytest

from repro.graphs import (
    barbell_of_stars,
    c4_gadget_union,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    gnp_random_graph,
    gnp_with_max_degree,
    grid_graph,
    path_graph,
    power_law_degree_sequence,
    random_bipartite_regular,
    random_regular_graph,
    star_graph,
    zec_instance_graph,
)


class TestDeterministicFamilies:
    def test_path(self):
        g = path_graph(5)
        assert g.m == 4 and g.max_degree() == 2
        assert g.degree(0) == g.degree(4) == 1

    def test_cycle(self):
        g = cycle_graph(6)
        assert g.m == 6
        assert all(g.degree(v) == 2 for v in g.vertices())
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_star(self):
        g = star_graph(7)
        assert g.degree(0) == 6 and g.m == 6

    def test_complete(self):
        g = complete_graph(5)
        assert g.m == 10 and g.max_degree() == 4

    def test_complete_bipartite(self):
        g = complete_bipartite(3, 4)
        assert g.m == 12
        assert all(g.degree(v) == 4 for v in range(3))
        assert all(g.degree(v) == 3 for v in range(3, 7))

    def test_grid(self):
        g = grid_graph(3, 4)
        assert g.n == 12
        assert g.m == 3 * 3 + 2 * 4
        assert g.max_degree() <= 4

    def test_barbell_of_stars(self):
        g = barbell_of_stars(3, 5)
        assert g.n == 18
        # centers: leaves + up to 2 path edges
        assert g.max_degree() == 7


class TestRandomFamilies:
    def test_gnp_bounds(self):
        rng = random.Random(1)
        g = gnp_random_graph(30, 0.0, rng)
        assert g.m == 0
        g = gnp_random_graph(30, 1.0, rng)
        assert g.m == 30 * 29 // 2
        with pytest.raises(ValueError):
            gnp_random_graph(5, 1.5, rng)

    def test_gnp_with_max_degree_respects_cap(self):
        rng = random.Random(2)
        g = gnp_with_max_degree(60, 0.5, 7, rng)
        assert g.max_degree() <= 7

    def test_random_regular_degrees(self):
        rng = random.Random(3)
        for n, d in [(10, 3), (50, 8), (80, 13), (200, 16)]:
            if n * d % 2:
                continue
            g = random_regular_graph(n, d, rng)
            assert all(g.degree(v) == d for v in g.vertices())

    def test_random_regular_rejects_odd_product(self):
        with pytest.raises(ValueError):
            random_regular_graph(5, 3, random.Random(0))

    def test_random_regular_rejects_degree_too_large(self):
        with pytest.raises(ValueError):
            random_regular_graph(4, 4, random.Random(0))

    def test_random_regular_zero_degree(self):
        g = random_regular_graph(6, 0, random.Random(0))
        assert g.m == 0

    def test_random_regular_empty_graph_is_regular(self):
        rng = random.Random(0)
        state = rng.getstate()
        for d in (0, 2):
            g = random_regular_graph(0, d, rng)
            assert g.n == 0 and g.m == 0
        assert rng.getstate() == state  # nothing drawn

    @pytest.mark.parametrize(
        "n, d, message",
        [
            (-1, 0, "vertex count must be non-negative"),
            (4, -1, "degree must be non-negative"),
            (5, 3, "n\\*d must be even"),
            (4, 4, "degree 4 too large for 4 vertices"),
            (1, 2, "degree 2 too large for 1 vertices"),
        ],
    )
    def test_random_regular_rejects_bad_parameters(self, n, d, message):
        with pytest.raises(ValueError, match=message):
            random_regular_graph(n, d, random.Random(0))

    @pytest.mark.parametrize("n, max_degree", [(2, 1), (50, 7), (5000, 64)])
    def test_power_law_degrees_equal_one_draw_per_vertex(self, n, max_degree):
        """One ``choices(k=n)`` call is the historical per-vertex loop."""
        exponent = 2.3
        weights = [d ** (-exponent) for d in range(1, max_degree + 1)]
        rng = random.Random(n)
        want = [
            rng.choices(range(1, max_degree + 1), weights=weights)[0]
            for _ in range(n)
        ]
        if sum(want) % 2:
            want[want.index(min(want))] += 1
        got_rng = random.Random(n)
        got = power_law_degree_sequence(n, exponent, max_degree, got_rng)
        assert got == want
        assert got_rng.getstate() == rng.getstate()

    def test_bipartite_regular(self):
        rng = random.Random(4)
        g = random_bipartite_regular(20, 5, rng)
        assert all(g.degree(v) == 5 for v in g.vertices())
        # bipartite: no edge within a part
        assert all(
            (u < 20) != (v < 20) for u, v in g.edges()
        )


class TestLowerBoundInstances:
    def test_c4_gadget_structure(self):
        g = c4_gadget_union([0, 1])
        assert g.n == 8 and g.m == 8
        assert g.max_degree() == 2
        # bit 0 gadget contains {a,c}
        assert g.has_edge(0, 2) and g.has_edge(1, 3)
        # bit 1 gadget contains {a,d}
        assert g.has_edge(4, 7) and g.has_edge(5, 6)

    def test_c4_gadget_rejects_non_bits(self):
        with pytest.raises(ValueError):
            c4_gadget_union([0, 2])

    def test_zec_instance(self):
        g = zec_instance_graph((1, 7), (1, 2))
        assert g.n == 9
        assert g.m == 4
        assert g.max_degree() == 2
        assert g.has_edge(0, 2) and g.has_edge(0, 8)
        assert g.has_edge(1, 2) and g.has_edge(1, 3)

    def test_zec_instance_rejects_bad_spokes(self):
        with pytest.raises(ValueError):
            zec_instance_graph((1, 1), (2, 3))
        with pytest.raises(ValueError):
            zec_instance_graph((0, 2), (2, 3))
