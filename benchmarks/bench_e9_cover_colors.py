"""E9 — the Lemma 5.4 cover-colors message: O(n) bits, O(log n) colors.

Builds cover messages for growing vertex sets with availability profiles
matching Algorithm 2's low-degree vertices (≥ 1/3 of the peer palette
available) and checks the two quantitative claims: total message size is
linear in ``n`` (the geometric bitmap series), and the number of cover
colors grows at most logarithmically.
"""

from __future__ import annotations

import math
import random

from repro.analysis import linear_fit, print_table
from repro.core import build_cover_message, decode_cover_message

SIZES = (100, 200, 400, 800, 1600)
DELTA = 16


def build_instance(n: int, rng: random.Random):
    palette = list(range(DELTA, 2 * DELTA - 1))  # Bob's palette at Δ=16
    need = math.ceil(len(palette) / 3)
    vertices = list(range(n))
    used = {
        v: set(palette) - set(rng.sample(palette, rng.randint(need, len(palette))))
        for v in vertices
    }
    return vertices, used, palette


def test_e9_cover_message_scaling(benchmark):
    rng = random.Random(4)
    rows = []
    ns, bits = [], []
    for n in SIZES:
        vertices, used, palette = build_instance(n, rng)
        msg = build_cover_message(vertices, used, palette)
        assignment = decode_cover_message(vertices, msg)
        assert all(assignment[v] not in used[v] for v in vertices)
        rows.append(
            [n, msg.nbits, round(msg.nbits / n, 2), len(msg.colors),
             round(3 * math.log2(n), 1)]
        )
        ns.append(n)
        bits.append(msg.nbits)
    fit = linear_fit(ns, bits)
    print_table(
        ["n", "message bits", "bits/n", "cover colors", "3·log2(n)"],
        rows,
        title=(
            f"E9  Lemma 5.4 cover message (Δ={DELTA}; "
            f"fit {fit.slope:.2f}·n+{fit.intercept:.0f}, R²={fit.r2:.4f})"
        ),
    )
    assert fit.r2 > 0.99
    # O(log n) cover colors.
    assert all(r[3] <= r[4] + 4 for r in rows)

    vertices, used, palette = build_instance(800, rng)
    benchmark(lambda: build_cover_message(vertices, used, palette))
