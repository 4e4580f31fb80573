"""Tests for the k-Slack-Int protocols (Lemma A.1 / Algorithm 3)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import TRANSPORTS, Transcript
from repro.rand import Stream
from repro.core.slack import (
    guess_schedule,
    randomized_slack_proto,
    sampling_probability,
    slack_find_proto,
)


def run_deterministic(ground, X, Y):
    return TRANSPORTS["count"].run(
        (slack_find_proto, ground, X),
        (slack_find_proto, ground, Y),
    )


class TestDeterministicBinarySearch:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_finds_free_element(self, data):
        m = data.draw(st.integers(min_value=1, max_value=64))
        ground = list(range(m))
        X = set(data.draw(st.lists(st.integers(0, m - 1), max_size=m)))
        Y = set(data.draw(st.lists(st.integers(0, m - 1), max_size=m)))
        # Precondition of the protocol: counting slack is positive.
        if m - len(X) - len(Y) < 1:
            return
        a, b, t = run_deterministic(ground, X, Y)
        assert a == b
        assert a not in X and a not in Y
        assert t.rounds <= math.ceil(math.log2(m)) + 2

    def test_bit_cost_is_polylog(self):
        m = 1 << 12
        ground = list(range(m))
        X = set(range(0, m, 3))
        Y = set(range(1, m, 3))
        _, _, t = run_deterministic(ground, X, Y)
        assert t.total_bits <= 4 * (math.log2(m) + 1) ** 2

    def test_no_slack_raises(self):
        with pytest.raises(ValueError):
            run_deterministic([0, 1], {0}, {1})

    def test_overlapping_sets_still_ok_with_counting_slack(self):
        # X and Y overlap; counting slack 4 - 1 - 1 = 2 >= 1.
        a, b, _ = run_deterministic([0, 1, 2, 3], {0}, {0})
        assert a == b and a in (1, 2, 3)

    def test_singleton_ground(self):
        a, b, t = run_deterministic([7], set(), set())
        assert a == b == 7

    def test_skips_opening_round_with_known_counts(self):
        a, b, t = TRANSPORTS["count"].run(
            (slack_find_proto, [0, 1], {0}, 1, 0),
            (slack_find_proto, [0, 1], set(), 0, 1),
        )
        assert a == b == 1
        assert t.rounds == 1  # only the halving step


class TestGuessSchedule:
    def test_descends_to_one(self):
        assert guess_schedule(16) == [16, 8, 4, 2, 1]
        assert guess_schedule(1) == [1]

    def test_length_logarithmic(self):
        assert len(guess_schedule(1 << 20)) == 21

    def test_probability_saturates(self):
        assert sampling_probability(100, 1) == 1.0
        assert sampling_probability(100, 100) == 1.0  # 150·m/k̃² = 1.5, clamped
        assert 0 < sampling_probability(10**6, 10**6) < 1


class TestRandomizedSlack:
    def run_randomized(self, m, X, Y, seed=0):
        return TRANSPORTS["count"].run(
            (randomized_slack_proto, m, X, Stream.from_seed(seed)),
            (randomized_slack_proto, m, Y, Stream.from_seed(seed)),
        )

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_finds_free_element(self, data):
        m = data.draw(st.integers(min_value=1, max_value=64))
        X = set(data.draw(st.lists(st.integers(0, m - 1), max_size=m)))
        Y = set(data.draw(st.lists(st.integers(0, m - 1), max_size=m)))
        if len(X) + len(Y) > m - 1:
            return
        seed = data.draw(st.integers(min_value=0, max_value=10**6))
        a, b, t = self.run_randomized(m, X, Y, seed)
        assert a == b
        assert a not in X and a not in Y
        # Lemma A.2 worst case: O(log m) rounds.
        assert t.rounds <= 3 * (math.log2(m) + 2)

    def test_large_slack_is_cheap(self):
        m = 1 << 10
        costs = []
        for seed in range(20):
            _, _, t = self.run_randomized(m, set(), set(), seed)
            costs.append(t.total_bits)
        # With full slack the first guess succeeds: tens of bits, not log^2 m.
        assert sum(costs) / len(costs) < 200

    def test_tiny_slack_costs_more_than_large_slack(self):
        m = 1 << 10
        tight_x = set(range(0, m - 1, 2))
        tight_y = set(range(1, m - 1, 2))
        assert len(tight_x) + len(tight_y) == m - 1
        tight = sum(
            self.run_randomized(m, tight_x, tight_y, s)[2].total_bits
            for s in range(10)
        )
        loose = sum(
            self.run_randomized(m, set(), set(), s)[2].total_bits
            for s in range(10)
        )
        assert tight > loose

    def test_rejects_empty_ground(self):
        with pytest.raises(ValueError):
            TRANSPORTS["count"].run(
                (randomized_slack_proto, 0, set(), Stream.from_seed(0)),
                (randomized_slack_proto, 0, set(), Stream.from_seed(0)),
            )

    def test_violated_precondition_raises(self):
        # X ∪ Y = ground with |X|+|Y| = m: Algorithm 3 must detect this.
        with pytest.raises(RuntimeError):
            TRANSPORTS["count"].run(
                (randomized_slack_proto, 2, {0}, Stream.from_seed(0)),
                (randomized_slack_proto, 2, {1}, Stream.from_seed(0)),
            )

    def test_transcript_symmetry(self):
        transcript = Transcript()
        TRANSPORTS["count"].run(
            (randomized_slack_proto, 32, {1, 2}, Stream.from_seed(5)),
            (randomized_slack_proto, 32, {3}, Stream.from_seed(5)),
            transcript,
        )
        # Counts flow both ways every round.
        assert transcript.bits_alice_to_bob > 0
        assert transcript.bits_bob_to_alice > 0
