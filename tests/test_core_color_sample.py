"""Tests for Color-Sample (Lemma 3.1): correctness, uniformity, cost shape."""

from __future__ import annotations

import math
from collections import Counter

import pytest

from repro.comm import TRANSPORTS
from repro.rand import Stream
from repro.core import color_sample_proto


def sample_once(m, used_a, used_b, seed):
    a, b, t = TRANSPORTS["count"].run(
        (color_sample_proto, m, used_a, Stream.from_seed(seed)),
        (color_sample_proto, m, used_b, Stream.from_seed(seed)),
    )
    assert a == b, "the sampled color must be common knowledge"
    return a, t


class TestCorrectness:
    def test_avoids_both_sides(self):
        for seed in range(50):
            color, _ = sample_once(8, {1, 2}, {2, 3, 4}, seed)
            assert color in {5, 6, 7, 8}

    def test_single_available_color_found(self):
        for seed in range(20):
            color, _ = sample_once(5, {1, 2}, {3, 4}, seed)
            assert color == 5

    def test_full_palette_available(self):
        for seed in range(20):
            color, _ = sample_once(6, set(), set(), seed)
            assert 1 <= color <= 6

    def test_overlapping_used_sets(self):
        for seed in range(20):
            color, _ = sample_once(4, {1, 2}, {1}, seed)
            assert color in {3, 4}

    def test_palette_of_one(self):
        color, t = sample_once(1, set(), set(), 0)
        assert color == 1

    def test_rejects_empty_palette(self):
        with pytest.raises(ValueError):
            TRANSPORTS["count"].run(
                (color_sample_proto, 0, set(), Stream.from_seed(0)),
                (color_sample_proto, 0, set(), Stream.from_seed(0)),
            )

    def test_rejects_out_of_palette_used_colors(self):
        with pytest.raises(ValueError):
            TRANSPORTS["count"].run(
                (color_sample_proto, 3, {4}, Stream.from_seed(0)),
                (color_sample_proto, 3, {4}, Stream.from_seed(0)),
            )


class TestUniformity:
    def test_uniform_over_available(self):
        """Lemma 3.1: the sampled color is uniform over the available set."""
        m = 6
        used_a, used_b = {1}, {2}
        available = [3, 4, 5, 6]
        trials = 1200
        counts = Counter(
            sample_once(m, used_a, used_b, seed)[0] for seed in range(trials)
        )
        assert set(counts) == set(available)
        expected = trials / len(available)
        # chi-squared statistic against uniform; df=3, 0.999-quantile ~ 16.3
        chi2 = sum((counts[c] - expected) ** 2 / expected for c in available)
        assert chi2 < 16.3, f"non-uniform sample: {dict(counts)}"


class TestCostShape:
    def mean_cost(self, m, k, trials=40):
        """Average bits when exactly k of m colors are available."""
        blocked = m - k
        used_a = set(range(1, blocked // 2 + 1))
        used_b = set(range(blocked // 2 + 1, blocked + 1))
        bits = []
        rounds = []
        for seed in range(trials):
            _, t = sample_once(m, used_a, used_b, seed)
            bits.append(t.total_bits)
            rounds.append(t.rounds)
        return sum(bits) / trials, sum(rounds) / trials

    def test_cost_grows_as_slack_shrinks(self):
        m = 256
        cost_full, rounds_full = self.mean_cost(m, m)
        cost_half, _ = self.mean_cost(m, m // 2)
        cost_tiny, rounds_tiny = self.mean_cost(m, 2)
        assert cost_full <= cost_half <= cost_tiny
        assert rounds_full <= rounds_tiny

    def test_worst_case_rounds_logarithmic(self):
        m = 256
        for seed in range(30):
            _, t = sample_once(m, set(range(1, m // 2)), set(range(m // 2, m)), seed)
            assert t.rounds <= 3 * (math.log2(m) + 2)
