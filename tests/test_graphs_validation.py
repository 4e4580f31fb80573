"""Tests for the coloring validators."""

from __future__ import annotations

import pytest

from repro.graphs import (
    Graph,
    assert_proper_edge_coloring,
    assert_proper_vertex_coloring,
    cycle_graph,
    is_proper_edge_coloring,
    is_proper_list_coloring,
    is_proper_vertex_coloring,
    vertex_coloring_conflicts,
)
from repro.graphs.validation import _edge_clashes


class TestVertexValidation:
    def test_accepts_proper(self):
        g = cycle_graph(4)
        assert is_proper_vertex_coloring(g, {0: 1, 1: 2, 2: 1, 3: 2}, 3)

    def test_rejects_monochromatic_edge(self):
        g = cycle_graph(4)
        colors = {0: 1, 1: 1, 2: 2, 3: 2}
        assert not is_proper_vertex_coloring(g, colors)
        assert (0, 1) in vertex_coloring_conflicts(g, colors)

    def test_rejects_uncolored_vertex(self):
        g = cycle_graph(4)
        assert not is_proper_vertex_coloring(g, {0: 1, 1: 2, 2: 1})

    def test_rejects_out_of_palette(self):
        g = cycle_graph(4)
        colors = {0: 1, 1: 2, 2: 1, 3: 99}
        assert not is_proper_vertex_coloring(g, colors, num_colors=3)
        assert is_proper_vertex_coloring(g, colors)  # no palette constraint

    def test_sequence_colors_supported(self):
        g = cycle_graph(4)
        assert is_proper_vertex_coloring(g, [1, 2, 1, 2], 2)

    def test_assert_gives_diagnostics(self):
        g = cycle_graph(4)
        with pytest.raises(AssertionError, match="uncolored"):
            assert_proper_vertex_coloring(g, {0: 1})
        with pytest.raises(AssertionError, match="monochromatic"):
            assert_proper_vertex_coloring(g, {0: 1, 1: 1, 2: 2, 3: 2})
        with pytest.raises(AssertionError, match="palette"):
            assert_proper_vertex_coloring(g, {0: 1, 1: 2, 2: 1, 3: 4}, 3)

    def test_partial_coloring_conflicts_ignores_uncolored(self):
        g = cycle_graph(4)
        assert vertex_coloring_conflicts(g, {0: 1, 2: 1}) == []


class TestEdgeValidation:
    def test_accepts_proper(self):
        g = cycle_graph(4)
        colors = {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2}
        assert is_proper_edge_coloring(g, colors, 3)

    def test_accepts_non_canonical_keys(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert is_proper_edge_coloring(g, {(1, 0): 1, (2, 1): 2})

    def test_rejects_shared_color_at_vertex(self):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(AssertionError, match="share color"):
            assert_proper_edge_coloring(g, {(0, 1): 1, (1, 2): 1})

    def test_clashes_of_a_partial_coloring(self):
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
        colors = {(0, 1): 1, (0, 3): 1, (3, 4): 1}  # (0, 2) left out
        assert _edge_clashes(g, colors) == [
            ((0, 1), (0, 3), 1, 0),
            ((0, 3), (3, 4), 1, 3),
        ]
        assert _edge_clashes(g, {(0, 1): 1, (3, 4): 1}) == []

    def test_rejects_uncolored_edge(self):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(AssertionError, match="uncolored"):
            assert_proper_edge_coloring(g, {(0, 1): 1})

    def test_rejects_out_of_palette(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(AssertionError, match="palette"):
            assert_proper_edge_coloring(g, {(0, 1): 5}, num_colors=3)

    @pytest.mark.parametrize("key", [(0, 2), (2, 0), (1, 1)])
    def test_rejects_color_on_non_edge(self, key):
        g = Graph(3, [(0, 1), (1, 2)])
        colors = {(0, 1): 1, (1, 2): 2, key: 3}
        assert not is_proper_edge_coloring(g, colors)
        with pytest.raises(AssertionError, match="non-edges"):
            assert_proper_edge_coloring(g, colors)

    @pytest.mark.parametrize("first", [(0, 1), (1, 0)])
    def test_rejects_edge_keyed_twice_with_different_colors(self, first):
        g = Graph(3, [(0, 1), (1, 2)])
        # Whichever key comes last would win a plain normalization.
        colors = {first: 1, first[::-1]: 3, (1, 2): 2}
        assert not is_proper_edge_coloring(g, colors)
        with pytest.raises(AssertionError, match="keyed twice"):
            assert_proper_edge_coloring(g, colors)

    def test_accepts_edge_keyed_twice_with_one_color(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert is_proper_edge_coloring(g, {(0, 1): 1, (1, 0): 1, (1, 2): 2})


class TestListValidation:
    def test_accepts_list_respecting_coloring(self):
        g = Graph(2, [(0, 1)])
        assert is_proper_list_coloring(g, {0: 1, 1: 2}, {0: {1}, 1: {2}})

    def test_rejects_color_outside_list(self):
        g = Graph(2, [(0, 1)])
        assert not is_proper_list_coloring(g, {0: 1, 1: 2}, {0: {3}, 1: {2}})

    def test_rejects_conflict(self):
        g = Graph(2, [(0, 1)])
        assert not is_proper_list_coloring(g, {0: 1, 1: 1}, {0: {1}, 1: {1}})

    def test_rejects_missing_vertex(self):
        g = Graph(2, [(0, 1)])
        assert not is_proper_list_coloring(g, {0: 1}, {0: {1}, 1: {2}})
