"""Tests for the edge-coloring state and Kempe-chain inversion."""

from __future__ import annotations

import random

import pytest

from repro.coloring import EdgeColoringState, color_edge_with_fan
from repro.graphs import gnp_random_graph
from repro.graphs.validation import assert_proper_edge_coloring


class TestAssignments:
    def test_assign_and_query(self):
        s = EdgeColoringState(4, 3)
        s.assign(0, 1, 2)
        assert s.color_of(1, 0) == 2
        assert s.neighbor_via(0, 2) == 1
        assert not s.is_free(0, 2)
        assert s.is_free(0, 1)
        assert list(s.free_colors(0)) == [1, 3]
        assert s.some_free_color(0) == 1

    def test_double_assign_rejected(self):
        s = EdgeColoringState(3, 3)
        s.assign(0, 1, 1)
        with pytest.raises(ValueError):
            s.assign(0, 1, 2)

    def test_conflicting_assign_rejected(self):
        s = EdgeColoringState(3, 3)
        s.assign(0, 1, 1)
        with pytest.raises(ValueError):
            s.assign(1, 2, 1)

    def test_out_of_palette_rejected(self):
        s = EdgeColoringState(3, 2)
        with pytest.raises(ValueError):
            s.assign(0, 1, 3)

    def test_unassign_restores_freedom(self):
        s = EdgeColoringState(3, 3)
        s.assign(0, 1, 1)
        assert s.unassign(0, 1) == 1
        assert s.is_free(0, 1) and s.is_free(1, 1)

    def test_recolor(self):
        s = EdgeColoringState(3, 3)
        s.assign(0, 1, 1)
        s.recolor(0, 1, 3)
        assert s.color_of(0, 1) == 3

    def test_saturated_vertex_has_no_free_color(self):
        s = EdgeColoringState(4, 2)
        s.assign(0, 1, 1)
        s.assign(0, 2, 2)
        assert s.some_free_color(0) is None


class TestKempeInversion:
    def test_flips_a_path(self):
        # path 0-1-2-3 alternately colored 1,2,1
        s = EdgeColoringState(4, 2)
        s.assign(0, 1, 1)
        s.assign(1, 2, 2)
        s.assign(2, 3, 1)
        path = s.invert_kempe_path(0, 2, 1)
        assert path == [0, 1, 2, 3]
        assert s.color_of(0, 1) == 2
        assert s.color_of(1, 2) == 1
        assert s.color_of(2, 3) == 2

    def test_no_edge_of_either_color_is_noop(self):
        s = EdgeColoringState(3, 3)
        s.assign(0, 1, 3)
        assert s.invert_kempe_path(0, 1, 2) == [0]
        assert s.color_of(0, 1) == 3

    def test_rejects_vertex_with_both_colors(self):
        s = EdgeColoringState(4, 2)
        s.assign(0, 1, 1)
        s.assign(0, 2, 2)
        with pytest.raises(ValueError):
            s.invert_kempe_path(0, 1, 2)

    def test_rejects_equal_colors(self):
        s = EdgeColoringState(2, 2)
        with pytest.raises(ValueError):
            s.invert_kempe_path(0, 1, 1)

    def test_inversion_preserves_properness(self):
        rng = random.Random(9)
        for _ in range(50):
            g = gnp_random_graph(rng.randint(2, 14), rng.random(), rng)
            k = g.max_degree() + 1
            if k < 2:
                continue
            s = EdgeColoringState(g.n, k)
            # Greedy-fill a partial coloring.
            for u, v in g.edge_list():
                free = next(
                    (c for c in s.free_colors(u) if s.is_free(v, c)), None
                )
                if free is not None:
                    s.assign(u, v, free)
            start = rng.randrange(g.n)
            alpha, beta = rng.sample(range(1, k + 1), 2)
            if not s.is_free(start, alpha) and not s.is_free(start, beta):
                continue
            s.invert_kempe_path(start, alpha, beta)
            colored = s.colors()
            sub = g.subgraph_edges(colored.keys())
            assert_proper_edge_coloring(sub, colored, k)


class TestRandomizedMasks:
    """Random operation sequences against the state's two per-vertex views.

    After every step each ``_used[v]`` must be the bitmask of ``_at[v]``'s
    colors, and every free-color query must match its linear-scan
    definition; the three ``assign`` rejections must still fire and leave
    the state untouched.
    """

    @staticmethod
    def _check(s: EdgeColoringState, k: int) -> None:
        for v in range(s.n):
            assert s._used[v] == sum(1 << c for c in s._at[v])
            free = [c for c in range(1, k + 1) if c not in s._at[v]]
            assert list(s.free_colors(v)) == free
            assert s.some_free_color(v) == (free[0] if free else None)
            for c in range(0, k + 2):
                assert s.is_free(v, c) == (c not in s._at[v])
        for u in range(s.n):
            for v in range(s.n):
                common = [
                    c for c in range(1, k + 1) if c not in s._at[u] and c not in s._at[v]
                ]
                assert s.common_free_color(u, v) == (common[0] if common else None)
        for (u, v), c in s.colors().items():
            assert s._at[u][c] == v and s._at[v][c] == u
        assert sum(map(len, s._at)) == 2 * s.colored_edge_count()

    @staticmethod
    def _rejections(s: EdgeColoringState, k: int, rng: random.Random, edges) -> None:
        before = (s.colors(), list(s._used))
        colored = list(s.colors().items())
        uncolored = [e for e in edges if s.color_of(*e) is None]
        if uncolored:
            u, v = rng.choice(uncolored)
            with pytest.raises(ValueError, match="outside palette"):
                s.assign(u, v, rng.choice([0, k + 1]))
            clashing = [
                (u, v, c)
                for u, v in uncolored
                for c in range(1, k + 1)
                if not s.is_free(u, c) or not s.is_free(v, c)
            ]
            if clashing:
                u, v, c = rng.choice(clashing)
                with pytest.raises(ValueError, match="not free"):
                    s.assign(u, v, c)
        if colored:
            (u, v), c = rng.choice(colored)
            with pytest.raises(ValueError, match="already colored"):
                s.assign(v, u, rng.randint(1, k))
        assert (s.colors(), list(s._used)) == before

    @pytest.mark.parametrize("seed", range(8))
    def test_random_operations_keep_masks_exact(self, seed):
        rng = random.Random(seed)
        g = gnp_random_graph(rng.randint(4, 12), rng.uniform(0.3, 0.9), rng)
        k = g.max_degree() + 1 + rng.randint(0, 2)
        edges = g.edge_list()
        s = EdgeColoringState(g.n, k)
        ops = ("assign", "fan", "unassign", "recolor", "kempe")
        for _ in range(120):
            op = rng.choice(ops)
            colored = list(s.colors().items())
            uncolored = [e for e in edges if s.color_of(*e) is None]
            if op in ("assign", "fan") and uncolored:
                u, v = rng.choice(uncolored)
                if op == "fan":
                    # k ≥ Δ+1: the fan procedure's preconditions always hold.
                    color_edge_with_fan(s, u, v)
                else:
                    shared = [c for c in range(1, k + 1) if s.is_free(u, c) and s.is_free(v, c)]
                    if shared:
                        s.assign(u, v, rng.choice(shared))
            elif op == "unassign" and colored:
                (u, v), c = rng.choice(colored)
                assert s.unassign(u, v) == c
            elif op == "recolor" and colored:
                (u, v), c = rng.choice(colored)
                options = [
                    d for d in range(1, k + 1) if d != c and s.is_free(u, d) and s.is_free(v, d)
                ]
                if options:
                    s.recolor(u, v, rng.choice(options))
            elif op == "kempe" and k >= 2:
                start = rng.randrange(g.n)
                alpha, beta = rng.sample(range(1, k + 1), 2)
                if s.is_free(start, alpha) or s.is_free(start, beta):
                    s.invert_kempe_path(start, alpha, beta)
            self._check(s, k)
            self._rejections(s, k, rng, edges)
        colored = s.colors()
        assert_proper_edge_coloring(g.subgraph_edges(colored), colored, k)
