"""Tests for the ledger and the one run loop (rounds, desync, fan-out)."""

from __future__ import annotations

import pytest

from repro.comm import TRANSPORTS, ProtocolDesyncError, Transcript

ALL_TRANSPORTS = sorted(TRANSPORTS)


def echo_proto(ch, value, rounds):
    """Send ``value`` for ``rounds`` rounds; return everything received."""
    received = []
    for _ in range(rounds):
        received.append((yield from ch.send(8, value)))
    return received


class TestTranscript:
    def test_round_accounting(self):
        t = Transcript()
        t.record_round(10, 0)
        t.record_round(0, 7)
        assert t.total_bits == 17
        assert t.rounds == 2
        assert t.messages == 2
        assert t.bits_alice_to_bob == 10
        assert t.bits_bob_to_alice == 7

    def test_phase_attribution(self):
        t = Transcript()
        with t.phase("one"):
            t.record_round(4, 4)
        with t.phase("two"):
            t.record_round(1, 0)
        assert t.phase_stats("one").total_bits == 8
        assert t.phase_stats("two").total_bits == 1
        assert t.phase_stats("two").rounds == 1
        assert t.phase_stats("missing").total_bits == 0

    def test_nested_phases_accumulate(self):
        t = Transcript()
        with t.phase("outer"):
            with t.phase("inner"):
                t.record_round(2, 2)
            t.record_round(1, 1)
        assert t.phase_stats("outer").total_bits == 6
        assert t.phase_stats("inner").total_bits == 4

    def test_negative_bits_rejected(self):
        t = Transcript()
        with pytest.raises(ValueError):
            t.record_round(-1, 0)


@pytest.mark.parametrize("name", ALL_TRANSPORTS)
class TestRunner:
    def test_two_round_exchange(self, name):
        a, b, t = TRANSPORTS[name].run((echo_proto, 1, 2), (echo_proto, 2, 2))
        assert a == [2, 2]
        assert b == [1, 1]
        assert t.rounds == 2
        assert t.total_bits == 32

    def test_zero_round_protocol(self, name):
        def silent(ch):
            return "done"
            yield  # pragma: no cover - makes this a generator

        a, b, t = TRANSPORTS[name].run(silent, silent)
        assert a == b == "done"
        assert t.rounds == 0
        assert t.total_bits == 0

    def test_desync_raises(self, name):
        with pytest.raises(ProtocolDesyncError):
            TRANSPORTS[name].run((echo_proto, 1, 2), (echo_proto, 2, 3))

    def test_transcript_reuse_accumulates(self, name):
        t = Transcript()
        TRANSPORTS[name].run((echo_proto, 1, 1), (echo_proto, 2, 1), t)
        TRANSPORTS[name].run((echo_proto, 1, 1), (echo_proto, 2, 1), t)
        assert t.rounds == 2
        assert t.round_log == [(8, 8), (8, 8)]


@pytest.mark.parametrize("name", ALL_TRANSPORTS)
class TestParallelComposer:
    def test_round_sharing(self, name):
        def party(ch, lengths):
            result = yield from ch.parallel(
                {k: (echo_proto, v, r) for k, (v, r) in lengths.items()}
            )
            return result

        lengths = {"x": (7, 1), "y": (9, 3)}
        a, b, t = TRANSPORTS[name].run((party, lengths), (party, lengths))
        # Round cost is the max of the sub-protocol lengths...
        assert t.rounds == 3
        # ...and each sub-protocol heard its counterpart the right number
        # of times.
        assert a["x"] == [7]
        assert a["y"] == [9, 9, 9]
        # Bit cost is the sum: x contributes 1 round of 8 bits per side,
        # y contributes 3.
        assert t.total_bits == 2 * 8 * (1 + 3)

    def test_empty_composition_finishes_instantly(self, name):
        def party(ch):
            result = yield from ch.parallel({})
            return result

        a, b, t = TRANSPORTS[name].run(party, party)
        assert a == {} and b == {}
        assert t.rounds == 0

    def test_subprotocol_returning_without_yield(self, name):
        def instant(sub):
            return 42
            yield  # pragma: no cover

        def party(ch):
            result = yield from ch.parallel({"i": instant, "e": (echo_proto, 5, 1)})
            return result

        a, _, t = TRANSPORTS[name].run(party, party)
        assert a == {"i": 42, "e": [5]}
        assert t.rounds == 1

    def test_rejects_non_batch_peer_message(self, name):
        def bad_peer(ch):
            yield from ch.send(1, 1)

        def party(ch):
            result = yield from ch.parallel({"k": (echo_proto, 1, 1)})
            return result

        with pytest.raises(TypeError):
            TRANSPORTS[name].run(party, bad_peer)
