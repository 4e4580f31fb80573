"""Tests for lazy permutations: Feistel bijectivity and the small-m table.

The Feistel network must be a bijection on ``[0, m)`` for *every* m —
cycle walking handles non-powers-of-two — and the inverse must invert
exactly, because Color-Sample maps used colors through ``index_of`` and
the sampled position back through ``perm[i]``.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest

from repro.rand import (
    SMALL_THRESHOLD,
    FeistelPermutation,
    SmallPermutation,
    Stream,
    kernels,
    make_permutation,
    mix64,
)

NON_POWERS_OF_TWO = [1, 2, 3, 5, 6, 7, 9, 11, 12, 13, 37, 97, 100, 129, 1000, 4097]

#: Keys for the small-table goldens: the edge words plus 60 mixed ones.
SMALL_GOLDEN_KEYS = [0, 1, 0xDEADBEEF, (1 << 64) - 1] + [mix64(i) for i in range(60)]

#: sha256 of the ``;``-joined tables ``SmallPermutation(key, m).materialize()``
#: over :data:`SMALL_GOLDEN_KEYS`, pinned on the pure ``_build`` path.  m <= 12
#: is the one-word Lehmer decode, 13..96 the per-swap Fisher-Yates draws.
SMALL_GOLDENS = {
    5: "f3fc214f8bf44fe088a2a9cd3ffc9cabd1090952c55b0a12f8fce2a609629c77",
    12: "02f6715f26cd3c8876aec562485add20d3a8b52199659d9d4fb1b78757bfcd44",
    13: "a81390682e8e1c455b1913a4dbdb1be8ef2869caf41ee9625b288aa292defe9b",
    17: "f36087b3ec2769aab3351425e5c678b2292e5eb91e3bc46208785478269c8ee4",
    64: "1496bae272d7560744aea528f135e25136e52e81bedc2a86d045681ab2e26d1d",
    65: "9d711524ebdcaac918f4ad8c2e1a2184e2241f861d6637c8a700fb7508be15b8",
    96: "2d1b8e49979f433ae7a020cc825045d66a7041a6a35ce140464dd14cede3f823",
}


def small_tables_digest(tables) -> str:
    payload = ";".join(",".join(map(str, table)) for table in tables)
    return hashlib.sha256(payload.encode()).hexdigest()


class TestFeistelBijectivity:
    @pytest.mark.parametrize("m", NON_POWERS_OF_TWO)
    def test_is_a_permutation(self, m):
        perm = FeistelPermutation(0xC0FFEE ^ m, m)
        assert sorted(perm.materialize()) == list(range(m))

    @pytest.mark.parametrize("m", NON_POWERS_OF_TWO)
    def test_inverse_round_trip(self, m):
        perm = FeistelPermutation(0xBADF00D ^ m, m)
        for i in range(m):
            assert perm.index_of(perm[i]) == i
        for x in range(m):
            assert perm[perm.index_of(x)] == x

    def test_pinned_golden(self):
        perm = FeistelPermutation(0xDEADBEEF, 1000)
        digest = hashlib.sha256(
            ",".join(map(str, perm.materialize())).encode()
        ).hexdigest()
        assert digest == (
            "7594c54ef440d1ddc19337441f53133781d8187b7f988273241a801515aeb2c9"
        )

    def test_different_keys_differ(self):
        a = FeistelPermutation(1, 500).materialize()
        b = FeistelPermutation(2, 500).materialize()
        assert a != b

    def test_out_of_range_rejected(self):
        perm = FeistelPermutation(7, 10)
        with pytest.raises(IndexError):
            perm[10]
        with pytest.raises(IndexError):
            perm.index_of(-1)

    def test_lazy_iteration_matches_materialize(self):
        perm = FeistelPermutation(99, 200)
        assert list(perm) == perm.materialize()
        assert len(perm) == 200


class TestSmallPermutation:
    @pytest.mark.parametrize("m", list(range(0, 14)) + [37, SMALL_THRESHOLD])
    def test_is_a_permutation_with_exact_inverse(self, m):
        perm = SmallPermutation(0x5EED ^ m, m)
        assert sorted(perm.materialize()) == list(range(m))
        for i in range(m):
            assert perm.index_of(perm[i]) == i

    def test_lazy_until_first_access(self):
        perm = SmallPermutation(1, 20)
        assert perm._forward is None  # construction draws nothing
        perm[0]
        assert perm._forward is not None

    @pytest.mark.parametrize("m", sorted(SMALL_GOLDENS))
    def test_pinned_golden(self, m):
        tables = [SmallPermutation(key, m).materialize() for key in SMALL_GOLDEN_KEYS]
        assert small_tables_digest(tables) == SMALL_GOLDENS[m]

    @pytest.mark.skipif(not kernels.available(), reason="numpy unavailable")
    @pytest.mark.parametrize("m", [m for m in sorted(SMALL_GOLDENS) if m > 12])
    def test_batch_kernel_hits_the_golden(self, m):
        blob = kernels.small_permutation_tables(SMALL_GOLDEN_KEYS, m)
        tables = [blob[r * m:(r + 1) * m] for r in range(len(SMALL_GOLDEN_KEYS))]
        assert small_tables_digest(tables) == SMALL_GOLDENS[m]

    def test_lehmer_path_is_uniformish(self):
        # m=5 uses the one-word Lehmer decode; every first element should
        # appear ~1/5 of the time across keys.
        counts = Counter(SmallPermutation(key, 5)[0] for key in range(10000))
        assert all(abs(c - 2000) < 300 for c in counts.values()), counts


class TestMakePermutation:
    def test_backend_choice_is_size_deterministic(self):
        assert isinstance(make_permutation(3, SMALL_THRESHOLD), SmallPermutation)
        assert isinstance(make_permutation(3, SMALL_THRESHOLD + 1), FeistelPermutation)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            make_permutation(3, -1)


class TestStreamPermutation:
    def test_shared_stream_permutations_agree(self):
        a, b = Stream.from_seed(7), Stream.from_seed(7)
        for m in (1, 2, 5, 33, 200):
            assert a.permutation(m).materialize() == b.permutation(m).materialize()

    def test_successive_permutations_differ(self):
        s = Stream.from_seed(7)
        assert s.permutation(50).materialize() != s.permutation(50).materialize()

    def test_consumes_exactly_one_word(self):
        s = Stream.from_seed(7)
        s.permutation(1000)
        assert s.counter == 1
