"""Tests for the numpy kernel backend of ``repro.rand``.

The contract under test is bit-for-bit parity: every draw the vectorized
kernels produce — values *and* counter consumption — must equal the pure
Python reference path, which stays the golden definition of the streams.
Pinned sha256 digests catch cross-platform drift; the randomized
cross-backend sweep catches dispatch/threshold bugs; the protocol-level
checks prove that flipping the backend cannot change a single experiment
record.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core.vertex_coloring import run_vertex_coloring
from repro.engine import build_partition
from repro.engine.scenarios import Scenario
from repro.rand import (
    SMALL_THRESHOLD,
    LegacyTape,
    SmallPermutation,
    Stream,
    kernels,
    permutations,
)

requires_numpy = pytest.mark.skipif(
    not kernels.available(), reason="numpy unavailable (or REPRO_NO_NUMPY set)"
)


def _hd(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------------
# pinned golden digests (valid for BOTH backends — that is the point)
# ---------------------------------------------------------------------------


GOLDENS = [
    (
        "biased coins k=5000 p=0.3",
        lambda: "".join(
            "1" if b else "0" for b in Stream.from_seed(7, "kern-coins").coins(5000, 0.3)
        ),
        "d7ed25c5f52d3efeef792b4ac7a3ebde4975b7a66b2eb4d39a00adae5a30cc77",
    ),
    (
        "fair coins k=5000",
        lambda: "".join(
            "1" if b else "0" for b in Stream.from_seed(7, "kern-fair").coins(5000, 0.5)
        ),
        "b855604cc09f395e9bab3b45464e705d9ecbf643c346faf8a30b9f40a638be43",
    ),
    (
        "ints k=3000 wide range",
        lambda: ",".join(
            map(str, Stream.from_seed(7, "kern-ints").ints(3000, -500, 10**9))
        ),
        "7c00fbca95a37a9bbb77004527f082a3ec2d6ba87a4c877aae1f4aa59ea14705",
    ),
    (
        "sample_indices m=65536 p=0.03",
        lambda: ",".join(
            map(str, Stream.from_seed(7, "kern-idx").sample_indices(65536, 0.03))
        ),
        "4b3e44a583a91b6743cac1d603cb04a3abc0ceae92df1d088babfde53b5f5310",
    ),
    (
        "sample_mask m=8192 p=0.4",
        lambda: "".join(
            "1" if b else "0" for b in Stream.from_seed(7, "kern-mask").sample_mask(8192, 0.4)
        ),
        "7df3f6000c7830bda8ab6462c50cdb06a050f43fac1f769d851636cae7d25fae",
    ),
    (
        "feistel materialize m=4097",
        lambda: ",".join(
            map(str, Stream.from_seed(7, "kern-perm").permutation(4097).materialize())
        ),
        "eaef06d5265aad671ac3c56e68a2f9cf44f8150fef71b43354df34f72e3c037f",
    ),
]


class TestGoldenDigests:
    """The same pinned digest must hold with kernels on and off."""

    @pytest.mark.parametrize("name,draw,expected", GOLDENS, ids=[g[0] for g in GOLDENS])
    def test_pure_path(self, name, draw, expected):
        with kernels.disabled():
            assert _hd(draw()) == expected

    @requires_numpy
    @pytest.mark.parametrize("name,draw,expected", GOLDENS, ids=[g[0] for g in GOLDENS])
    def test_kernel_path(self, name, draw, expected):
        assert _hd(draw()) == expected


# ---------------------------------------------------------------------------
# randomized cross-backend equivalence
# ---------------------------------------------------------------------------


def _coin_cases():
    rng = random.Random(0xC01)
    cases = []
    for i in range(20):
        k = rng.choice([1, 63, 64, 65, 127, 128, 129, 2047, 2048, 2049, 5000])
        p = rng.choice([0.5, 0.0, 1.0, -0.2, 1.5, 1e-9, 0.3, 0.77])
        cases.append((rng.randrange(2**31), k, p))
    return cases


def _int_cases():
    rng = random.Random(0x1E7)
    cases = []
    for i in range(15):
        k = rng.choice([1, 127, 128, 129, 1000, 4096])
        low = rng.choice([0, -1, 10**18, -(10**18), 2**63 - 5, -(2**63)])
        width = rng.choice([1, 2, 97, 2**32, 2**63 - 1, 2**63 + 1, 2**64 - 1])
        cases.append((rng.randrange(2**31), k, low, low + width - 1))
    return cases


def _sample_cases():
    rng = random.Random(0x5A3)
    cases = []
    for i in range(15):
        m = rng.choice([1, 127, 128, 129, 4096, 65536])
        p = rng.choice([0.0, 1.0, 2.0, -1.0, 0.01, 0.05, 0.3, 0.9])
        cases.append((rng.randrange(2**31), m, p))
    return cases


@requires_numpy
class TestCrossBackendEquivalence:
    """Kernels must match the pure path in values AND counter consumption."""

    @pytest.mark.parametrize("seed,k,p", _coin_cases())
    def test_coins(self, seed, k, p):
        a = Stream.from_seed(seed, "x")
        b = Stream.from_seed(seed, "x")
        with kernels.disabled():
            want = a.coins(k, p)
        got = b.coins(k, p)
        assert got == want
        assert a.counter == b.counter

    @pytest.mark.parametrize("seed,k,low,high", _int_cases())
    def test_ints(self, seed, k, low, high):
        a = Stream.from_seed(seed, "x")
        b = Stream.from_seed(seed, "x")
        with kernels.disabled():
            want = a.ints(k, low, high)
        got = b.ints(k, low, high)
        assert got == want
        assert a.counter == b.counter

    @pytest.mark.parametrize("seed,m,p", _sample_cases())
    def test_sample_indices_and_mask(self, seed, m, p):
        a = Stream.from_seed(seed, "x")
        b = Stream.from_seed(seed, "x")
        with kernels.disabled():
            want_idx = list(a.sample_indices(m, p))
            want_mask = a.sample_mask(m, p)
        got_idx = list(b.sample_indices(m, p))
        got_mask = b.sample_mask(m, p)
        assert got_idx == want_idx
        assert got_mask == want_mask
        assert a.counter == b.counter

    @pytest.mark.parametrize("m", [97, 256, 257, 1000, 4097, 10007])
    def test_feistel_non_power_of_two(self, m):
        # Batch queries, inverse batches, and full materialization on
        # non-power-of-two domains (cycle walking exercised).
        with kernels.disabled():
            pure_perm = Stream.from_seed(11, "f").permutation(m)
            want_tab = list(pure_perm.materialize())
        perm = Stream.from_seed(11, "f").permutation(m)
        xs = list(range(0, m, 3))
        assert perm.batch(xs) == [want_tab[x] for x in xs]
        assert perm.index_of_batch([want_tab[x] for x in xs]) == xs
        assert list(perm.materialize()) == want_tab
        assert sorted(want_tab) == list(range(m))


# ---------------------------------------------------------------------------
# batched small permutations
# ---------------------------------------------------------------------------


def _perm_streams(k: int) -> list[Stream]:
    base = Stream.from_seed(5, "perms")
    return [base.derive(i) for i in range(k)]


def _assert_same_perms(got, want, m):
    assert len(got) == len(want)
    assert [(type(p), p.key) for p in got] == [(type(p), p.key) for p in want]
    # Every table and every inverse lookup; above the small-table range
    # (scalar Feistel, equal keys already checked) only the ends of a batch.
    pairs = list(zip(got, want))
    if m > SMALL_THRESHOLD:
        pairs = pairs[:1] + pairs[-1:]
    for a, b in pairs:
        assert a.materialize() == b.materialize()
        assert [a.index_of(x) for x in range(m)] == [b.index_of(x) for x in range(m)]


class TestBatchPermutations:
    """``permutations(streams, m)`` equals the per-stream calls exactly."""

    CHUNK = kernels.PERM_CHUNK

    @pytest.mark.parametrize(
        "k", [0, 1, kernels.PERM_MIN_BATCH, CHUNK - 1, CHUNK, CHUNK + 1]
    )
    @pytest.mark.parametrize("m", [0, 1, 12, 13, 96, 97])
    @pytest.mark.parametrize("kernels_on", [True, False], ids=["kernels", "pure"])
    def test_matches_per_stream_calls(self, k, m, kernels_on):
        if kernels_on and not kernels.available():
            pytest.skip("numpy unavailable (or REPRO_NO_NUMPY set)")
        reference = _perm_streams(k)
        with kernels.disabled():
            want = [s.permutation(m) for s in reference]
        batched = _perm_streams(k)
        if kernels_on:
            got = permutations(batched, m)
        else:
            with kernels.disabled():
                got = permutations(batched, m)
        _assert_same_perms(got, want, m)
        assert [s.counter for s in batched] == [1] * k

    @requires_numpy
    @pytest.mark.parametrize("m", [13, 17, 64, 65, 96])
    def test_kernel_tables_match_pure_build(self, m):
        keys = [s.next64() for s in _perm_streams(300)]
        keys += [0, 1, (1 << 64) - 1]
        tables = kernels.small_permutation_tables(keys, m)
        assert all(isinstance(t, bytes) and len(t) == m for t in tables)
        assert [list(t) for t in tables] == [
            SmallPermutation(key, m)._build() for key in keys
        ]

    @requires_numpy
    def test_kernel_path_prebuilds_forward_only(self):
        perms = permutations(_perm_streams(kernels.PERM_MIN_BATCH), 17)
        assert all(isinstance(p._forward, bytes) for p in perms)
        assert all(p._inverse is None for p in perms)

    def test_repeated_stream_consumes_words_in_order(self):
        stream, reference = Stream.from_seed(3), Stream.from_seed(3)
        got = permutations([stream] * 20, 40)
        want = [reference.permutation(40) for _ in range(20)]
        _assert_same_perms(got, want, 40)
        assert stream.counter == reference.counter == 20

    def test_legacy_tape_batch_takes_per_stream_path(self):
        m, k = 33, 50
        got = permutations([LegacyTape(i) for i in range(k)], m)
        want = [LegacyTape(i).permutation(m) for i in range(k)]
        assert [type(p) for p in got] == [type(p) for p in want]
        assert [p.materialize() for p in got] == [p.materialize() for p in want]

    def test_mixed_stream_types_take_per_stream_path(self):
        streams = _perm_streams(30) + [LegacyTape(1)]
        got = permutations(streams, 40)
        assert all(p._forward is None for p in got[:-1])  # lazy, never batched
        assert [p.materialize() for p in got[:-1]] == [
            s.permutation(40).materialize() for s in _perm_streams(30)
        ]


# ---------------------------------------------------------------------------
# gating and the escape hatch
# ---------------------------------------------------------------------------


class TestGating:
    def test_disabled_context_restores(self):
        before = kernels.available()
        with kernels.disabled():
            assert not kernels.available()
        assert kernels.available() == before

    def test_disabled_context_is_reentrant(self):
        with kernels.disabled():
            with kernels.disabled():
                assert not kernels.available()
            assert not kernels.available()

    @requires_numpy
    def test_thresholds_are_sane(self):
        assert kernels.MIN_BATCH >= 1
        assert kernels.FAIR_MIN_BATCH >= kernels.MIN_BATCH
        assert kernels.FEISTEL_MIN_BATCH >= 1
        assert kernels.PERM_CHUNK >= kernels.PERM_MIN_BATCH >= 1


# ---------------------------------------------------------------------------
# protocol-level invariance
# ---------------------------------------------------------------------------


@requires_numpy
class TestProtocolInvariance:
    """Flipping the kernel backend must not change any experiment record."""

    # d=8 palettes take the Lehmer path; d=16 (m=17) batches its tables in
    # Random-Color-Trial, and with no trial iterations in D1LC.
    @pytest.mark.parametrize("d,trials", [(8, None), (16, None), (16, 0)])
    def test_vertex_coloring_identical(self, d, trials):
        scenario = Scenario(
            family="regular",
            params=(("d", d), ("n", 128)),
            partition="random",
            protocol="vertex",
            seed=3,
        )
        part = build_partition(scenario)
        live = run_vertex_coloring(part, seed=3, max_trial_iterations=trials)
        with kernels.disabled():
            pure = run_vertex_coloring(part, seed=3, max_trial_iterations=trials)
        assert live.colors == pure.colors
        assert live.transcript.fingerprint() == pure.transcript.fingerprint()
        assert live.leftover_size == pure.leftover_size

    def test_one_round_sparsify_identical(self):
        from repro.baselines import run_one_round_sparsify

        scenario = Scenario(
            family="regular",
            params=(("d", 16), ("n", 128)),
            partition="random",
            protocol="vertex",
            seed=3,
        )
        part = build_partition(scenario)
        live = run_one_round_sparsify(part, seed=3)
        with kernels.disabled():
            pure = run_one_round_sparsify(part, seed=3)
        assert live.colors == pure.colors
        assert live.transcript.fingerprint() == pure.transcript.fingerprint()

    def test_scenario_record_identical(self):
        from repro.engine.scenarios import PROTOCOLS

        scenario = Scenario(
            family="gnp",
            params=(("n", 48), ("p", 0.2)),
            partition="random",
            protocol="vertex",
            backend="bitset",
        )
        part = build_partition(scenario)
        run = PROTOCOLS["vertex"].run
        live = run(part, scenario.effective_seed)
        with kernels.disabled():
            pure = run(part, scenario.effective_seed)
        assert live == pure
