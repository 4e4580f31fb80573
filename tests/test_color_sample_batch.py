"""The batched Color-Sample fan-out against the per-instance reference.

``color_sample_batch_proto`` must be indistinguishable from ``K``
``color_sample_proto`` instances under ``ch.parallel``: the same picks in
the same (completion) order, the same transcript aggregate and, on the
``strict`` wire, the same per-round log — with the numpy lockstep kernel
on and off.  Its error paths must be loud and symmetric.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import TRANSPORTS, telemetry
from repro.comm.codecs import CodecMismatchError
from repro.comm.transport import Channel, ProtocolDesyncError, StrictChannel
from repro.core import run_vertex_coloring
from repro.core.color_sample import color_sample_batch_proto, color_sample_proto
from repro.engine import Scenario
from repro.engine.runner import build_partition
from repro.rand import Stream, derive_keys, kernels

PALETTES = (1, 2, 12, 13, 65, 96, 97, 150, 151)
FAN_OUTS = (0, 1, 7, 8, 500)

needs_numpy = pytest.mark.skipif(
    not kernels.available(), reason="numpy kernels unavailable"
)


def _instances(m: int, k: int, seed: int, fill: float):
    """``k`` (A, B) pairs over ``[1..m]`` with ``|A| + |B| <= m - 1``."""
    rng = random.Random(seed)
    palette = range(1, m + 1)
    alice, bob = [], []
    for _ in range(k):
        a = rng.randint(0, int(fill * (m - 1)))
        b = rng.randint(0, m - 1 - a)
        alice.append(set(rng.sample(palette, a)))
        bob.append(set(rng.sample(palette, b)))
    return alice, bob


def _streams(seed: int, k: int):
    base = Stream.from_seed(seed).derive("batch")
    return [base.derive(i) for i in range(k)]


def _keys(seed: int, k: int):
    """The keys of :func:`_streams`, derived as one batch."""
    return derive_keys(Stream.from_seed(seed).derive("batch").key, range(k))


def _reference(ch, m, used_sets, seed):
    streams = _streams(seed, len(used_sets))
    return (
        yield from ch.parallel(
            {
                i: (color_sample_proto, m, used, stream)
                for i, (used, stream) in enumerate(zip(used_sets, streams))
            }
        )
    )


def _flat(used_sets):
    """The fan-out's flat input: CSR offsets and the concatenated colors."""
    offsets = [0, *accumulate(map(len, used_sets))]
    return offsets, [c for used in used_sets for c in sorted(used)]


def _batched(ch, m, used_sets, seed):
    keys = _keys(seed, len(used_sets))
    return (yield from color_sample_batch_proto(ch, m, *_flat(used_sets), keys))


def _run(proto, transport, m, alice, bob, seed):
    """Both parties' results and the transcript, with telemetry counted."""
    telemetry.reset()
    telemetry.enable()
    try:
        a, b, transcript = TRANSPORTS[transport].run(
            (proto, m, alice, seed), (proto, m, bob, seed)
        )
    finally:
        telemetry.disable()
    return a, b, transcript, telemetry.color_sample_kernel_fanouts


@pytest.mark.parametrize("m", PALETTES)
@pytest.mark.parametrize("k", FAN_OUTS)
@settings(max_examples=3, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    fill=st.floats(0.0, 1.0),
    numpy_on=st.booleans(),
)
def test_batch_matches_the_parallel_reference(m, k, seed, fill, numpy_on):
    if numpy_on and not kernels.available():
        numpy_on = False
    alice, bob = _instances(m, k, seed, fill)
    expect_kernel = numpy_on and 12 < m <= 96 and k >= 1
    with nullcontext() if numpy_on else kernels.disabled():
        # The strict reference pins the aggregate and the round log; the
        # two transports' aggregates agree (transport parity).
        want_a, want_b, want_t, _ = _run(
            _reference, "strict", m, alice, bob, seed
        )
        for transport in TRANSPORTS:
            got_a, got_b, got_t, kernel_fanouts = _run(
                _batched, transport, m, alice, bob, seed
            )
            assert kernel_fanouts == (2 if expect_kernel else 0), "wrong dispatch"
            # Same picks, keyed by instance, in the same completion order.
            assert list(got_a.items()) == list(want_a.items())
            assert list(got_b.items()) == list(want_b.items())
            assert got_a == got_b
            for i, color in got_a.items():
                assert color not in alice[i] and color not in bob[i]
            assert got_t.fingerprint() == want_t.fingerprint()
            assert got_t.summary() == want_t.summary()
            if transport == "strict":
                assert got_t.round_log == want_t.round_log
                assert got_t.fingerprint(with_log=True) == want_t.fingerprint(
                    with_log=True
                )


@pytest.mark.parametrize("numpy_on", [True, False])
def test_used_color_outside_the_palette_fails_before_any_round(numpy_on):
    if numpy_on and not kernels.available():
        pytest.skip("numpy kernels unavailable")
    m, k = 17, 20
    used_sets = [set() for _ in range(k)]
    used_sets[5] = {3, m + 1}
    with pytest.raises(ValueError) as reference:
        next(color_sample_proto(Channel(), m, used_sets[5], _streams(0, k)[5]))
    # The first advance raises: no round's message is ever yielded.
    with nullcontext() if numpy_on else kernels.disabled():
        gen = color_sample_batch_proto(Channel(), m, *_flat(used_sets), _keys(0, k))
        with pytest.raises(ValueError) as batched:
            next(gen)
    assert str(batched.value) == str(reference.value)


def _raise_rounds(alice, bob):
    """Step both parties in lockstep; the round and error each one raises."""
    gens = [alice, bob]
    raised: list = [None, None]
    items: list = [None, None]
    for p, gen in enumerate(gens):
        try:
            items[p] = next(gen)
        except Exception as exc:  # noqa: BLE001 - recorded and compared
            raised[p] = (0, type(exc))
    rnd = 0
    while None in raised:
        rnd += 1
        sent = list(items)
        for p, gen in enumerate(gens):
            if raised[p] is None:
                try:
                    items[p] = gen.send(sent[1 - p])
                except Exception as exc:  # noqa: BLE001
                    raised[p] = (rnd, type(exc))
        assert rnd < 100, "no party raised"
    return raised


@pytest.mark.parametrize("numpy_on", [True, False])
def test_violated_slack_raises_runtime_error_on_both_parties_at_once(numpy_on):
    if numpy_on and not kernels.available():
        pytest.skip("numpy kernels unavailable")
    m, k = 17, 20
    alice = [set() for _ in range(k)]
    bob = [set() for _ in range(k)]
    # |A| + |B| = m: no free color is guaranteed for instance 7.
    alice[7] = set(range(1, 10))
    bob[7] = set(range(10, m + 1))
    with nullcontext() if numpy_on else kernels.disabled():
        raised = _raise_rounds(
            _batched(Channel(), m, alice, 4),
            _batched(Channel(), m, bob, 4),
        )
    assert raised[0] == raised[1]
    rnd, error = raised[0]
    assert error is RuntimeError and not issubclass(error, ProtocolDesyncError)
    if numpy_on:
        # Right after the one count round; the reference repeats it once
        # per remaining Algorithm 3 guess (5 guesses at m = 17) first.
        assert rnd == 1
    else:
        assert rnd == 5
    with pytest.raises(RuntimeError) as excinfo:
        with nullcontext() if numpy_on else kernels.disabled():
            TRANSPORTS["count"].run(
                (_batched, m, alice, 4), (_batched, m, bob, 4)
            )
    assert type(excinfo.value) is RuntimeError


@needs_numpy
@pytest.mark.parametrize("short_post", [1, 2])
def test_under_declared_batched_message_fails_strict(monkeypatch, short_post):
    """Shave one bit off Alice's count message (1) or first bisection (2)."""
    real_post = StrictChannel.post
    posts = []

    def post(self, nbits, payload=None, codec=None):
        # Posts alternate Alice, Bob: Alice's n-th is number 2n - 1.
        posts.append(nbits)
        if len(posts) == 2 * short_post - 1:
            nbits -= 1
        return real_post(self, nbits, payload, codec)

    monkeypatch.setattr(StrictChannel, "post", post)
    m, k = 40, 30
    alice, bob = _instances(m, k, 1, 0.5)
    with pytest.raises(CodecMismatchError):
        TRANSPORTS["strict"].run(
            (_batched, m, alice, 1), (_batched, m, bob, 1)
        )


def _count_parallel_calls(monkeypatch):
    calls = []
    real_parallel = Channel.parallel

    def parallel(self, subprotocols):
        calls.append(len(subprotocols))
        return real_parallel(self, subprotocols)

    monkeypatch.setattr(Channel, "parallel", parallel)
    return calls


@needs_numpy
@pytest.mark.parametrize(
    "family, params, trials",
    [
        # vertex-social's shape: Random-Color-Trial at the paper budget.
        ("social", (("exponent", 2.3), ("max_degree", 64), ("n", 2000)), None),
        # vertex-d1lc's shape: every vertex through D1LC's sparsification.
        ("regular", (("d", 16), ("n", 60)), 0),
        # vertex-d1lc's exact shape (m = 17, 40,800 instances in one fan-out).
        ("regular", (("d", 16), ("n", 300)), 0),
    ],
)
def test_theorem_1_fan_outs_never_reach_channel_parallel(
    monkeypatch, family, params, trials
):
    partition = build_partition(Scenario(family, params, "random", "vertex", "csr"))
    with kernels.disabled():
        want = run_vertex_coloring(partition, seed=5, max_trial_iterations=trials)
    calls = _count_parallel_calls(monkeypatch)
    telemetry.reset()
    telemetry.enable()
    try:
        got = run_vertex_coloring(partition, seed=5, max_trial_iterations=trials)
    finally:
        telemetry.disable()
    assert calls == []
    assert telemetry.color_sample_kernel_fanouts == telemetry.color_sample_fanouts > 0
    assert got.colors == want.colors
    assert got.transcript.fingerprint() == want.transcript.fingerprint()
