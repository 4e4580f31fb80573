"""Codec round-trips + cost-honesty checks against real protocol messages."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.comm.bits import bitmap_cost, uint_cost
from repro.comm.codecs import (
    decode_bounded_count,
    decode_color_vector,
    decode_cover_payload,
    decode_edge_list,
    decode_flag_bitmap,
    edge_list_cost,
    encode_bounded_count,
    encode_color_vector,
    encode_cover_payload,
    encode_edge_list,
    encode_flag_bitmap,
)
from repro.core import build_cover_message
from repro.graphs import gnp_random_graph


class TestBoundedCounts:
    @given(st.integers(min_value=0, max_value=10_000))
    def test_round_trip(self, bound):
        value = bound // 2
        bits = encode_bounded_count(value, bound)
        assert len(bits) == uint_cost(bound)
        assert decode_bounded_count(bits, bound) == value

    def test_zero_bound_is_free(self):
        assert encode_bounded_count(0, 0) == []


class TestFlagBitmaps:
    @given(st.lists(st.booleans(), max_size=200))
    def test_round_trip_and_cost(self, flags):
        bits = encode_flag_bitmap(flags)
        assert len(bits) == bitmap_cost(len(flags))
        assert decode_flag_bitmap(bits, len(flags)) == flags


class TestEdgeLists:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_and_declared_cost(self, data):
        n = data.draw(st.integers(min_value=2, max_value=50))
        seed = data.draw(st.integers(min_value=0, max_value=10**6))
        rng = random.Random(seed)
        g = gnp_random_graph(n, rng.random(), rng)
        edges = g.edge_list()
        bits = encode_edge_list(edges, n)
        assert len(bits) == edge_list_cost(len(edges), n)
        assert decode_edge_list(bits, n) == edges

    def test_empty_list(self):
        bits = encode_edge_list([], 10)
        assert decode_edge_list(bits, 10) == []


class TestColorVectors:
    @given(
        st.integers(min_value=1, max_value=64),
        st.lists(st.integers(min_value=1, max_value=64), max_size=40),
    )
    def test_round_trip(self, num_colors, raw):
        colors = [1 + (c - 1) % num_colors for c in raw]
        bits = encode_color_vector(colors, num_colors)
        assert len(bits) == len(colors) * uint_cost(num_colors)
        assert decode_color_vector(bits, len(colors), num_colors) == colors


class TestCoverMessageCodec:
    def test_real_cover_messages_encode_to_declared_size(self, rng):
        """Lemma 5.4's declared nbits must match an actual encoding
        (up to the color-id width, which the declared cost also uses)."""
        palette = list(range(8, 20))
        for _ in range(25):
            vertices = rng.sample(range(60), rng.randint(1, 30))
            used = {
                v: set(palette) - set(rng.sample(palette, rng.randint(4, len(palette))))
                for v in vertices
            }
            msg = build_cover_message(vertices, used, palette)
            bits = encode_cover_payload(msg.colors, msg.bitmaps, max(palette))
            assert len(bits) == msg.nbits
            colors, bitmaps = decode_cover_payload(
                bits, len(vertices), max(palette)
            )
            assert tuple(colors) == msg.colors
            assert tuple(tuple(b) for b in bitmaps) == msg.bitmaps

    def test_empty_cover_message(self):
        bits = encode_cover_payload([], [], 7)
        colors, bitmaps = decode_cover_payload(bits, 0, 7)
        assert colors == [] and bitmaps == []
