"""Tests for the Channel/Transport API: channels, transports, strict codecs.

Covers the contract: one channel protocol runs on both transports with
identical transcripts; desync detection holds on the one run loop; the
strict transport actually fires on under-declared messages, including
inside a ``parallel`` fan-out, and keeps the per-round log.
"""

from __future__ import annotations

import pytest

from repro.comm import (
    TRANSPORTS,
    CodecMismatchError,
    ProtocolDesyncError,
    StrictTransport,
    Transcript,
    Transport,
    resolve_transport,
    verify_declared_cost,
)
from repro.comm.codecs import encode_flag_bitmap

ALL_TRANSPORTS = sorted(TRANSPORTS)


def echo_proto(ch, value, rounds):
    """Channel protocol: send ``value`` each round, collect replies."""
    received = []
    for _ in range(rounds):
        reply = yield from ch.send(8, value)
        received.append(reply)
    return received


def count_up_proto(ch, rounds):
    """Exchange i in round i; peers must see each other's counters."""
    seen = []
    for i in range(rounds):
        seen.append((yield from ch.send(4, i)))
    return seen


class TestResolveTransport:
    def test_names_and_instances(self):
        assert type(resolve_transport("count")) is Transport
        assert isinstance(resolve_transport("strict"), StrictTransport)
        assert resolve_transport(None) is TRANSPORTS["count"]
        custom = Transport()
        assert resolve_transport(custom) is custom

    def test_registry_is_count_and_strict(self):
        assert set(TRANSPORTS) == {"count", "strict"}

    @pytest.mark.parametrize("name", ["telepathy", "lockstep"])
    def test_unknown_name_rejected(self, name):
        with pytest.raises(ValueError, match="'count', 'strict'"):
            resolve_transport(name)


class TestChannelExchanges:
    @pytest.mark.parametrize("name", ALL_TRANSPORTS)
    def test_send_round_trip(self, name):
        transport = TRANSPORTS[name]
        a, b, t = transport.run(
            lambda ch: echo_proto(ch, 1, 2),
            lambda ch: echo_proto(ch, 2, 2),
        )
        assert a == [2, 2]
        assert b == [1, 1]
        assert t.rounds == 2
        assert t.total_bits == 32

    @pytest.mark.parametrize("name", ALL_TRANSPORTS)
    def test_recv_is_silent(self, name):
        def talker(ch):
            reply = yield from ch.send(7, 100)
            return reply

        def listener(ch):
            got = yield from ch.recv()
            return got

        a, b, t = TRANSPORTS[name].run(talker, listener)
        assert a is None
        assert b == 100
        assert t.bits_alice_to_bob == 7
        assert t.bits_bob_to_alice == 0
        assert t.messages == 1

    @pytest.mark.parametrize("name", ALL_TRANSPORTS)
    def test_zero_round_protocol(self, name):
        def silent(ch):
            return "done"
            yield  # pragma: no cover - makes this a generator

        a, b, t = TRANSPORTS[name].run(silent, silent)
        assert a == b == "done"
        assert t.rounds == 0

    @pytest.mark.parametrize("name", ALL_TRANSPORTS)
    def test_transcript_reuse_accumulates(self, name):
        transport = TRANSPORTS[name]
        t = transport.new_transcript()
        transport.run(lambda ch: echo_proto(ch, 1, 1), lambda ch: echo_proto(ch, 2, 1), t)
        transport.run(lambda ch: echo_proto(ch, 1, 1), lambda ch: echo_proto(ch, 2, 1), t)
        assert t.rounds == 2
        assert t.total_bits == 32


class TestDesync:
    @pytest.mark.parametrize("name", ALL_TRANSPORTS)
    def test_round_count_mismatch_raises(self, name):
        with pytest.raises(ProtocolDesyncError):
            TRANSPORTS[name].run(
                lambda ch: echo_proto(ch, 1, 2),
                lambda ch: echo_proto(ch, 2, 3),
            )

    @pytest.mark.parametrize("name", ALL_TRANSPORTS)
    def test_phase_schedule_mismatch_raises(self, name):
        def phased(ch, phase_name):
            with ch.phase(phase_name):
                yield from ch.send(1, 0)

        with pytest.raises(ProtocolDesyncError):
            TRANSPORTS[name].run(
                lambda ch: phased(ch, "left"), lambda ch: phased(ch, "right")
            )


class TestChannelPhases:
    @pytest.mark.parametrize("name", ALL_TRANSPORTS)
    def test_phase_attribution(self, name):
        def proto(ch):
            with ch.phase("first"):
                yield from ch.send(4, 0)
                yield from ch.send(4, 1)
            with ch.phase("second"):
                yield from ch.send(2, 2)
            return "ok"

        _, _, t = TRANSPORTS[name].run(proto, proto)
        assert t.phase_stats("first").total_bits == 16
        assert t.phase_stats("first").rounds == 2
        assert t.phase_stats("second").total_bits == 4
        assert t.phase_stats("second").rounds == 1
        assert t.total_bits == 20

    @pytest.mark.parametrize("name", ALL_TRANSPORTS)
    def test_nested_phases_accumulate(self, name):
        def proto(ch):
            with ch.phase("outer"):
                with ch.phase("inner"):
                    yield from ch.send(2, 0)
                yield from ch.send(1, 1)
            return None

        _, _, t = TRANSPORTS[name].run(proto, proto)
        assert t.phase_stats("outer").total_bits == 6
        assert t.phase_stats("inner").total_bits == 4

    @pytest.mark.parametrize("name", ALL_TRANSPORTS)
    def test_interleaved_phase_segments(self, name):
        """Re-entering a phase accumulates across separate segments."""

        def proto(ch):
            for i in range(2):
                with ch.phase("a"):
                    yield from ch.send(1, i)
                with ch.phase("b"):
                    yield from ch.send(2, i)
            return None

        _, _, t = TRANSPORTS[name].run(proto, proto)
        assert t.phase_stats("a").rounds == 2
        assert t.phase_stats("a").total_bits == 4
        assert t.phase_stats("b").rounds == 2
        assert t.phase_stats("b").total_bits == 8


class TestChannelParallel:
    @pytest.mark.parametrize("name", ALL_TRANSPORTS)
    def test_round_sharing(self, name):
        specs = {"x": (7, 1), "y": (9, 3)}  # key -> (value, rounds)

        def party(ch):
            result = yield from ch.parallel(
                {
                    k: (lambda sub, v=v, r=r: echo_proto(sub, v, r))
                    for k, (v, r) in specs.items()
                }
            )
            return result

        a, b, t = TRANSPORTS[name].run(party, party)
        # Round cost is the max of the sub-protocol lengths; bit cost the sum.
        assert t.rounds == 3
        assert a["x"] == [7]
        assert a["y"] == [9, 9, 9]
        assert b == a
        assert t.total_bits == 2 * 8 * (1 + 3)

    @pytest.mark.parametrize("name", ALL_TRANSPORTS)
    def test_empty_composition_finishes_instantly(self, name):
        def party(ch):
            result = yield from ch.parallel({})
            return result

        a, b, t = TRANSPORTS[name].run(party, party)
        assert a == {} and b == {}
        assert t.rounds == 0

    @pytest.mark.parametrize("name", ALL_TRANSPORTS)
    def test_instant_subprotocol(self, name):
        def instant(sub):
            return 42
            yield  # pragma: no cover

        def party(ch):
            result = yield from ch.parallel(
                {"i": instant, "e": lambda sub: echo_proto(sub, 3, 1)}
            )
            return result

        a, _, t = TRANSPORTS[name].run(party, party)
        assert a == {"i": 42, "e": [3]}
        assert t.rounds == 1

    @pytest.mark.parametrize("name", ALL_TRANSPORTS)
    def test_rejects_non_batch_peer_message(self, name):
        """A peer outside the composition fails loudly on every transport."""

        def composed(ch):
            result = yield from ch.parallel(
                {"k": lambda sub: echo_proto(sub, 1, 1)}
            )
            return result

        def plain(ch):
            # A dict payload is the worst case: on an untagged wire it
            # could masquerade as a batch.
            yield from ch.send(8, {"k": (4, 1)}, codec=lambda p: [0] * 8)

        with pytest.raises(TypeError):
            TRANSPORTS[name].run(composed, plain)

    @pytest.mark.parametrize("name", ALL_TRANSPORTS)
    def test_negative_bits_inside_batch_rejected(self, name):
        def bad_sub(sub):
            yield from sub.send(-2, None)

        def party(ch):
            result = yield from ch.parallel({"k": bad_sub})
            return result

        # Count rejects the negative size itself (ValueError); strict
        # rejects even earlier at codec verification.
        with pytest.raises((ValueError, CodecMismatchError)):
            TRANSPORTS[name].run(party, party)

    @pytest.mark.parametrize("name", ALL_TRANSPORTS)
    def test_nested_parallel(self, name):
        """Sub-channels are full channels: parallel composes recursively."""

        def inner(ch):
            result = yield from ch.parallel(
                {j: (lambda sub, j=j: echo_proto(sub, j, 1)) for j in range(2)}
            )
            return result

        def outer(ch):
            result = yield from ch.parallel({"nest": inner})
            return result

        a, b, t = TRANSPORTS[name].run(outer, outer)
        assert a == {"nest": {0: [0], 1: [1]}}
        assert t.rounds == 1
        assert t.total_bits == 2 * 2 * 8


class TestCountTransport:
    def test_round_log_skipped(self):
        transport = TRANSPORTS["count"]
        _, _, t = transport.run(
            lambda ch: echo_proto(ch, 1, 3), lambda ch: echo_proto(ch, 2, 3)
        )
        assert t.record_log is False
        assert t.round_log == []
        assert t.rounds == 3

    def test_negative_declared_bits_rejected(self):
        def bad(ch):
            yield from ch.send(-1, None)

        with pytest.raises(ValueError):
            TRANSPORTS["count"].run(bad, bad)

    def test_segment_accounting_matches_per_round(self):
        """Bulk segment flushes equal individual record_round calls."""
        reference = Transcript()
        with reference.phase("p"):
            reference.record_round(3, 0)
            reference.record_round(0, 2)

        def proto(ch, bits):
            with ch.phase("p"):
                yield from ch.send(bits[0], 1)
                yield from ch.send(bits[1], 1)
            return None

        _, _, t = TRANSPORTS["count"].run(
            lambda ch: proto(ch, (3, 0)), lambda ch: proto(ch, (0, 2))
        )
        assert t.summary() == reference.summary()
        stats = t.phase_stats("p")
        ref = reference.phase_stats("p")
        assert (stats.bits_alice_to_bob, stats.bits_bob_to_alice, stats.rounds) == (
            ref.bits_alice_to_bob,
            ref.bits_bob_to_alice,
            ref.rounds,
        )


class TestRoundLog:
    def test_strict_keeps_round_log(self):
        _, _, t = TRANSPORTS["strict"].run(
            lambda ch: echo_proto(ch, 1, 3), lambda ch: echo_proto(ch, 2, 3)
        )
        assert t.record_log is True
        assert t.round_log == [(8, 8), (8, 8), (8, 8)]

    def test_count_keeps_round_log_when_the_transcript_asks(self):
        """The log follows ``record_log``, not the transport."""

        def proto(ch, bits):
            for b in bits:
                yield from ch.send(b, 0 if b else None)
            return None

        _, _, t = TRANSPORTS["count"].run(
            (proto, (3, 0, 1)), (proto, (0, 0, 2)), Transcript()
        )
        assert t.round_log == [(3, 0), (0, 0), (1, 2)]
        assert t.messages == 3

    def test_parallel_round_log_sums_sub_protocols(self):
        def party(ch):
            result = yield from ch.parallel(
                {"x": (echo_proto, 1, 1), "y": (count_up_proto, 2)}
            )
            return result

        _, _, t = TRANSPORTS["strict"].run(party, party)
        assert t.round_log == [(12, 12), (4, 4)]


class TestStrictTransport:
    def test_under_declared_int_fires(self):
        """Regression: the codec check actually fires on under-declaration."""

        def cheater(ch):
            # 17 needs 5 bits; declaring 3 under-reports the cost.
            yield from ch.send(3, 17)

        def honest(ch):
            yield from ch.recv()

        with pytest.raises(CodecMismatchError):
            TRANSPORTS["strict"].run(cheater, honest)

    def test_under_declared_bitmap_fires(self):
        def cheater(ch):
            yield from ch.send(2, (True, False, True))

        def honest(ch):
            yield from ch.recv()

        with pytest.raises(CodecMismatchError):
            TRANSPORTS["strict"].run(cheater, honest)

    def test_explicit_codec_mismatch_fires(self):
        def cheater(ch):
            yield from ch.send(
                5, [True] * 3, codec=lambda p: encode_flag_bitmap(p)
            )

        def honest(ch):
            yield from ch.recv()

        with pytest.raises(CodecMismatchError):
            TRANSPORTS["strict"].run(cheater, honest)

    def test_unencodable_payload_rejected(self):
        def opaque(ch):
            yield from ch.send(8, object())

        def honest(ch):
            yield from ch.recv()

        with pytest.raises(CodecMismatchError):
            TRANSPORTS["strict"].run(opaque, honest)

    def test_honest_messages_pass(self):
        def honest(ch):
            reply = yield from ch.send(5, 17)  # 17 fits in 5 bits
            reply = yield from ch.send(3, (True, False, True))
            return reply

        a, b, t = TRANSPORTS["strict"].run(honest, honest)
        assert a == (True, False, True)
        assert t.total_bits == 16

    def test_count_does_not_verify(self):
        """Only strict pays (and enforces) the codec check."""

        def cheater(ch):
            yield from ch.send(3, 17)

        def honest(ch):
            yield from ch.recv()

        _, _, t = TRANSPORTS["count"].run(cheater, honest)
        assert t.total_bits == 3

    @pytest.mark.parametrize("spelling", ["send", "post"])
    @pytest.mark.parametrize("depth", [1, 2])
    def test_under_declared_inside_parallel_fires(self, spelling, depth):
        """The sub-channel is the channel: the check reaches every sub-protocol."""

        def cheater(sub):
            yield from echo_proto(sub, 1, 1)
            # 17 needs 5 bits; declaring 3 under-reports the cost.
            if spelling == "send":
                yield from sub.send(3, 17)
            else:
                yield sub.post(3, 17)

        def fan_out(ch, level):
            if level == 0:
                result = yield from cheater(ch)
                return result
            result = yield from ch.parallel(
                {"ok": (echo_proto, 2, 2), "bad": (fan_out, level - 1)}
            )
            return result

        with pytest.raises(CodecMismatchError):
            TRANSPORTS["strict"].run((fan_out, depth), (fan_out, depth))
        # The same fan-out runs unchecked on count.
        _, _, t = TRANSPORTS["count"].run((fan_out, depth), (fan_out, depth))
        assert t.rounds == 2

    def test_verify_declared_cost_none_payload(self):
        verify_declared_cost(0, None)
        with pytest.raises(CodecMismatchError):
            verify_declared_cost(4, None)
