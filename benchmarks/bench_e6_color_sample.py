"""E6 — Color-Sample cost vs slack (Lemma 3.1 / Lemma A.2).

Measures the expected bits and rounds of sampling an available color when
``k`` of ``Δ+1`` colors are available.  The claim is the *upper bound*
``O(log²((Δ+1)/k))`` bits / ``O(log((Δ+1)/k))`` rounds.  Note the constant
structure: Algorithm 3's sampling constant ``C = 150`` means the very first
guess already succeeds whenever ``k ≳ (Δ+1)/C``, so the measured curve is
flat (≈ ``log² C`` bits) across most of the slack range and only climbs as
``k`` approaches 1 and the palette grows — exactly what the lemma permits.
We verify monotonicity in ``1/k``, the envelope, and the worst-case growth
with the palette size at ``k = 1``.
"""

from __future__ import annotations

import math

from repro.analysis import mean_ci, print_table
from repro.comm import TRANSPORTS
from repro.rand import Stream
from repro.core import color_sample_proto
from repro.core.slack import SAMPLING_CONSTANT

PALETTE = 256
SLACKS = (256, 128, 64, 16, 4, 1)
WORST_CASE_PALETTES = (16, 64, 256, 1024)
TRIALS = 60


def sample_cost(m: int, k: int, seed: int):
    blocked = m - k
    used_a = set(range(1, blocked // 2 + 1))
    used_b = set(range(blocked // 2 + 1, blocked + 1))
    _, _, t = TRANSPORTS["count"].run(
        (color_sample_proto, m, used_a, Stream.from_seed(seed)),
        (color_sample_proto, m, used_b, Stream.from_seed(seed)),
    )
    return t.total_bits, t.rounds


def test_e6_color_sample_cost(benchmark):
    rows = []
    ys = []
    base_cost = math.log2(SAMPLING_CONSTANT) ** 2  # the first-guess floor
    for k in SLACKS:
        bits, rounds = zip(*(sample_cost(PALETTE, k, s) for s in range(TRIALS)))
        bits_mean, bits_half = mean_ci(bits)
        rounds_mean, _ = mean_ci(rounds)
        model = math.log2((PALETTE + 1) / k) ** 2 + 1
        rows.append(
            [
                k,
                round(bits_mean, 1),
                f"±{bits_half:.1f}",
                round(rounds_mean, 2),
                round(model, 1),
            ]
        )
        ys.append(bits_mean)
    print_table(
        ["available k", "bits (mean)", "ci", "rounds (mean)", "log²((Δ+1)/k)+1"],
        rows,
        title=(
            f"E6a  Color-Sample cost vs slack (Δ+1={PALETTE}; flat "
            f"≈log²C={base_cost:.0f}-bit regime until k ≲ (Δ+1)/C, C={SAMPLING_CONSTANT})"
        ),
    )
    # Shape: cost is monotone as slack shrinks and within the lemma's
    # envelope (model + the first-guess constant).
    assert ys == sorted(ys)
    assert ys[-1] > ys[0]
    for (k, *_), mean in zip(rows, ys):
        envelope = 3 * (math.log2((PALETTE + 1) / k) ** 2 + base_cost) + 16
        assert mean <= envelope

    # Worst case (k = 1): bits grow with the palette size like log² m.
    rows_wc = []
    wc = []
    for m in WORST_CASE_PALETTES:
        bits, _rounds = zip(*(sample_cost(m, 1, s) for s in range(TRIALS)))
        mean, half = mean_ci(bits)
        rows_wc.append([m, round(mean, 1), f"±{half:.1f}", round(math.log2(m) ** 2, 1)])
        wc.append(mean)
    print_table(
        ["palette m", "bits (mean, k=1)", "ci", "log²m"],
        rows_wc,
        title="E6b  Color-Sample worst case (single available color)",
    )
    assert wc == sorted(wc)  # grows with m
    assert wc[-1] <= 6 * math.log2(WORST_CASE_PALETTES[-1]) ** 2

    benchmark(lambda: sample_cost(PALETTE, 4, 123))
