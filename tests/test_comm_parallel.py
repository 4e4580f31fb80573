"""``Channel.parallel`` on the real transports against the reference wire.

Multi-iteration ``parallel`` protocols run on both transports and on the
independent driver in ``tests/reference_wire.py`` must give the same
results and with-log transcript fingerprints, and whatever a
sub-protocol receives it may keep: payloads are the objects the peer's
sub-protocols posted, never refilled by a later round.
"""

from __future__ import annotations

from repro.comm import TRANSPORTS, Transcript

from .reference_wire import fresh_run


def _echo(ch, vals):
    got = []
    for v in vals:
        reply = yield from ch.send(4, v)
        got.append(reply)
    return got


def _iterated_parallel(ch, role, iterations, keys):
    """Many sequential ``parallel`` invocations on one channel.

    Any leakage of state across iterations (stale keys, stale payloads,
    bad compaction) would change the results or the transcript.
    """
    seen = []
    for it in range(iterations):
        with ch.phase(f"iter{it % 3}"):
            results = yield from ch.parallel(
                {
                    key: (_echo, [(it * 31 + key * 7 + j) % 13 for j in range(1 + (key + it) % 3)])
                    for key in keys
                }
            )
        seen.append(sorted(results.items()))
    return seen


def test_iterated_parallel_matches_reference_wire():
    spec_a = (_iterated_parallel, "alice", 12, list(range(5)))
    spec_b = (_iterated_parallel, "bob", 12, list(range(5)))

    ref_a, ref_b, reference = fresh_run(spec_a, spec_b)
    assert reference.rounds > 12
    for name in sorted(TRANSPORTS):
        a, b, transcript = TRANSPORTS[name].run(spec_a, spec_b, Transcript())
        assert (a, b) == (ref_a, ref_b)
        assert transcript.fingerprint(with_log=True) == reference.fingerprint(
            with_log=True
        )


def _retainer(ch, n):
    """Keeps every received payload; returns them all at the end."""
    kept = []
    for i in range(n):
        reply = yield from ch.send(8, i)
        kept.append(reply)
    return kept


def _sender_of_lists(ch, n, tag):
    for i in range(n):
        yield from ch.send(8, [tag, i])
    return None


def test_received_payloads_survive_later_rounds():
    """What a sub-protocol keeps, it keeps.

    Alice's sub-protocols send fresh list payloads each round; Bob's
    retain every one.  After the run each retained list must still hold
    exactly what was sent in its round.
    """
    keys = list(range(4))
    rounds = 9

    def alice(ch):
        result = yield from ch.parallel(
            {k: (_sender_of_lists, rounds, k) for k in keys}
        )
        return result

    def bob(ch):
        result = yield from ch.parallel({k: (_retainer, rounds) for k in keys})
        return result

    core = TRANSPORTS["count"]
    _, kept, _ = core.run(alice, bob, core.new_transcript())
    for k in keys:
        assert kept[k] == [[k, i] for i in range(rounds)]
