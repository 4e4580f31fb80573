"""Tests for geometric-skip Bernoulli sampling.

The gap-skipping sampler must produce the *same distribution* as the
dense coin-per-position reference (only the PRF word consumption
differs): per-position inclusion frequencies, subset-size moments, and
gap distribution all have to match Bernoulli(p) statistics.
"""

from __future__ import annotations

import random

from repro.rand import Stream


def _dense_indices(rng: random.Random, m: int, p: float) -> list[int]:
    """The coin-per-position reference: one Bernoulli(p) draw per index."""
    return [i for i in range(m) if rng.random() < p]


class TestEdgeCases:
    def test_saturated_probability_is_the_full_range(self):
        s = Stream.from_seed(0)
        out = s.sample_indices(10, 1.0)
        assert isinstance(out, range) and list(out) == list(range(10))
        assert s.counter == 0  # no draws consumed at saturation

    def test_zero_probability_is_empty(self):
        s = Stream.from_seed(0)
        assert list(s.sample_indices(10, 0.0)) == []
        assert s.sample_mask(10, 0.0) == [False] * 10
        assert s.counter == 0

    def test_empty_ground_set(self):
        s = Stream.from_seed(0)
        assert list(s.sample_indices(0, 0.5)) == []
        assert s.sample_mask(0, 0.5) == []

    def test_mask_extremes(self):
        s = Stream.from_seed(0)
        assert s.sample_mask(10, 1.0) == [True] * 10
        assert s.sample_mask(10, 0.0) == [False] * 10


class TestDeterminism:
    def test_same_stream_same_subset(self):
        a, b = Stream.from_seed(3), Stream.from_seed(3)
        assert list(a.sample_indices(500, 0.2)) == list(b.sample_indices(500, 0.2))

    def test_mask_and_indices_agree(self):
        a, b = Stream.from_seed(9), Stream.from_seed(9)
        mask = a.sample_mask(500, 0.17)
        indices = list(b.sample_indices(500, 0.17))
        assert [i for i, hit in enumerate(mask) if hit] == indices

    def test_indices_sorted_and_unique(self):
        idx = list(Stream.from_seed(1).sample_indices(10_000, 0.05))
        assert idx == sorted(set(idx))
        assert all(0 <= i < 10_000 for i in idx)


class TestDistributionEquivalence:
    """Geometric-skip vs dense Bernoulli: same law, different draw counts."""

    def test_inclusion_rate_matches_p(self):
        m, p, trials = 400, 0.1, 200
        s = Stream.from_seed(5)
        total = sum(len(s.sample_indices(m, p)) for _ in range(trials))
        mean = total / trials
        # E = 40, sigma = sqrt(m p (1-p)) = 6 => mean-of-200 within ~4 sigma/sqrt(200)
        assert abs(mean - m * p) < 2.0, mean

    def test_per_position_frequencies_are_flat(self):
        m, p, trials = 50, 0.3, 2000
        s = Stream.from_seed(6)
        hits = [0] * m
        for _ in range(trials):
            for i in s.sample_indices(m, p):
                hits[i] += 1
        # each position ~ Binomial(2000, 0.3): mean 600, sigma ~ 20.5
        assert all(480 < h < 720 for h in hits), hits

    def test_matches_dense_reference_sampler_statistics(self):
        m, p, trials = 300, 0.08, 300
        geo = Stream.from_seed(7)
        dense = random.Random(7)
        geo_sizes = sorted(len(geo.sample_indices(m, p)) for _ in range(trials))
        dense_sizes = sorted(len(_dense_indices(dense, m, p)) for _ in range(trials))
        geo_mean = sum(geo_sizes) / trials
        dense_mean = sum(dense_sizes) / trials
        assert abs(geo_mean - dense_mean) < 2.5, (geo_mean, dense_mean)
        # medians within a few positions of each other
        assert abs(geo_sizes[trials // 2] - dense_sizes[trials // 2]) <= 4

    def test_gap_distribution_is_geometric(self):
        # P(gap >= g) = (1-p)^g; check the empirical survival at g=10.
        p, trials = 0.1, 4000
        s = Stream.from_seed(8)
        gaps = []
        for _ in range(trials):
            idx = list(s.sample_indices(200, p))
            gaps.extend(b - a - 1 for a, b in zip(idx, idx[1:]))
        survival = sum(1 for g in gaps if g >= 10) / len(gaps)
        expected = (1 - p) ** 10  # ~0.349
        assert abs(survival - expected) < 0.04, survival
