"""Tests for the Lemma 5.4 cover-colors message."""

from __future__ import annotations

import math

import pytest

from repro.comm.bits import gamma_cost, uint_cost
from repro.core import build_cover_message, decode_cover_message


def random_used(rng, vertices, palette, min_fraction=1 / 3):
    """Random used-color sets each leaving ≥ min_fraction of the palette available."""
    need = math.ceil(len(palette) * min_fraction)
    return {
        v: set(palette) - set(rng.sample(palette, rng.randint(need, len(palette))))
        for v in vertices
    }


def bigint_cover_reference(low_vertices, available, palette):
    """The greedy cover over one n-bit availability mask per palette color.

    This is the builder's original big-int formulation, kept as the oracle
    for the count-based one: same picks, same tie-break (first palette
    color of maximum count), same bitmaps and declared size.
    """
    base = sorted(low_vertices)
    covers = {color: 0 for color in palette}
    for pos, v in enumerate(base):
        for color in available[v]:
            if color in covers:
                covers[color] |= 1 << pos
    colors, bitmaps, nbits = [], [], 0
    alive = (1 << len(base)) - 1
    while alive:
        best_color, best_count = None, -1
        for color in palette:
            count = (covers[color] & alive).bit_count()
            if count > best_count:
                best_color, best_count = color, count
        assert best_color is not None and best_count > 0
        hits = covers[best_color]
        flags = tuple(
            bool((hits >> pos) & 1)
            for pos in range(alive.bit_length())
            if (alive >> pos) & 1
        )
        colors.append(best_color)
        bitmaps.append(flags)
        nbits += uint_cost(max(palette)) + len(flags)
        alive &= ~hits
    nbits += gamma_cost(len(colors) + 1)
    return tuple(colors), tuple(bitmaps), nbits


def assert_matches_reference(vertices, used, palette):
    available = {v: set(palette) - set(used[v]) for v in vertices}
    msg = build_cover_message(vertices, used, palette)
    assert (msg.colors, msg.bitmaps, msg.nbits) == bigint_cover_reference(
        vertices, available, palette
    )


class TestBuildAndDecode:
    def test_round_trip_assigns_available_color(self, rng):
        palette = list(range(10, 25))  # 15 colors, like Bob's palette at Δ=16
        for _ in range(30):
            vertices = rng.sample(range(100), rng.randint(1, 40))
            used = random_used(rng, vertices, palette)
            msg = build_cover_message(vertices, used, palette)
            assignment = decode_cover_message(vertices, msg)
            assert set(assignment) == set(vertices)
            for v, color in assignment.items():
                assert color not in used[v]
                assert color in palette

    def test_empty_vertex_set(self):
        msg = build_cover_message([], {}, [1, 2, 3])
        assert msg.colors == ()
        assert decode_cover_message([], msg) == {}

    def test_message_size_linear(self, rng):
        """Lemma 5.4: O(n) bits total despite O(log n) cover rounds."""
        palette = list(range(1, 16))
        sizes = []
        for n in (50, 100, 200, 400):
            vertices = list(range(n))
            used = random_used(rng, vertices, palette)
            msg = build_cover_message(vertices, used, palette)
            sizes.append(msg.nbits / n)
        # Per-vertex cost roughly flat (geometric series ≤ 3n + color ids).
        assert max(sizes) <= 2 * min(sizes) + 8

    def test_cover_iterations_logarithmic(self, rng):
        palette = list(range(1, 16))
        vertices = list(range(500))
        used = random_used(rng, vertices, palette)
        msg = build_cover_message(vertices, used, palette)
        assert len(msg.colors) <= 3 * math.log2(500) + 5

    def test_rejects_empty_availability(self):
        for vertices, used, palette in (
            ([0], {0: {1, 2}}, [1, 2]),  # every palette color used
            ([0], {0: set()}, []),  # empty palette, non-empty vertex set
        ):
            with pytest.raises(ValueError):
                build_cover_message(vertices, used, palette)

    def test_decode_rejects_wrong_vertex_set(self, rng):
        palette = [1, 2, 3]
        used = {0: {2, 3}, 1: {1, 3}}
        msg = build_cover_message([0, 1], used, palette)
        with pytest.raises(ValueError):
            decode_cover_message([0, 1, 2], msg)

    def test_singleton_availability_worst_case(self):
        # Each vertex accepts exactly one distinct color: the cover needs
        # one round per color but must still terminate and assign.
        palette = [1, 2, 3, 4]
        vertices = [10, 11, 12, 13]
        used = {10 + i: set(palette) - {palette[i]} for i in range(4)}
        msg = build_cover_message(vertices, used, palette)
        assignment = decode_cover_message(vertices, msg)
        assert assignment == {10: 1, 11: 2, 12: 3, 13: 4}


class TestMatchesBigIntReference:
    """The count-based greedy against the n-bit-mask greedy it replaced."""

    def test_random_instances(self, rng):
        for _ in range(200):
            palette = rng.sample(range(1, 40), rng.randint(1, 20))
            vertices = rng.sample(range(200), rng.randint(0, 60))
            used = {}
            for v in vertices:
                keep = rng.choice(palette)  # at least one color stays available
                blocked = {c for c in palette if c != keep and rng.random() < 0.6}
                blocked |= {rng.randint(40, 60) for _ in range(rng.randint(0, 3))}
                used[v] = blocked
            assert_matches_reference(vertices, used, palette)

    def test_forced_ties_pick_first_palette_color(self):
        # Nothing used: every color covers everyone, and the first color of
        # the palette's own order (not the smallest) wins.
        palette = [9, 2, 5]
        vertices = list(range(6))
        used = {v: set() for v in vertices}
        assert_matches_reference(vertices, used, palette)
        assert build_cover_message(vertices, used, palette).colors == (9,)
        # Two colors tie at half the vertices each, in both palette orders.
        used = {v: {1} if v % 2 else {2} for v in vertices}
        for order in ([1, 2], [2, 1]):
            assert_matches_reference(vertices, used, order)
            assert build_cover_message(vertices, used, order).colors == tuple(order)

    def test_used_colors_outside_palette_are_ignored(self):
        palette = [4, 5, 6]
        vertices = [3, 1, 2]
        used = {1: {0, 4, 99}, 2: {7, 8}, 3: {5, 6, 100}}
        assert_matches_reference(vertices, used, palette)

    def test_empty_vertex_set(self):
        for palette in ([1, 2, 3], []):
            assert_matches_reference([], {}, palette)

    def test_used_as_sequence_with_repeats(self, rng):
        # edge_coloring_proto passes one list per vertex, indexed by vertex,
        # which may repeat a color (two edges sharing a non-palette color).
        palette = list(range(8, 20))
        used = [
            [rng.choice(palette + [1, 2]) for _ in range(rng.randint(0, 5))]
            for _ in range(80)
        ]
        vertices = rng.sample(range(80), 50)
        assert_matches_reference(vertices, used, palette)
