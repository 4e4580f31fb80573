"""Pool-safety tests for the allocation-free comm hot path.

The wire recycles keyed batch dicts across ``parallel`` rounds.  That is
only sound under specific lifetime rules (see the
``repro.comm.transport`` module docstring):

* a pooled batch buffer may be recycled only once it is provably out of
  flight: the *last*-yielded buffer of a ``parallel`` invocation is dropped
  to the GC, never returned to the freelist;
* payloads are never pooled — whatever a sub-protocol receives it may
  retain forever.

These tests drive the pooled generator by hand to pin the buffer lifecycle
(including a mutate-after-recycle regression test), and run multi-iteration
protocols on both transports against the unpooled reference driver in
``tests/reference_wire.py``, to show slot reuse changes nothing
observable.
"""

from __future__ import annotations

import pytest

from repro.comm import TRANSPORTS, Transcript
from repro.comm.transport import Channel, _Batch

from .reference_wire import fresh_run

# ---------------------------------------------------------------------------
# pooled parallel buffers: lifecycle, driven by hand
# ---------------------------------------------------------------------------


def _echo(ch, vals):
    got = []
    for v in vals:
        reply = yield from ch.send(4, v)
        got.append(reply)
    return got


def _drive(ch, subprotocols, incoming_per_round):
    """Run ``ch.parallel`` by hand; returns (yielded batches, results)."""
    gen = ch.parallel(subprotocols)
    batches = [next(gen)]
    for incoming in incoming_per_round:
        try:
            batches.append(gen.send(_Batch(incoming)))
        except StopIteration as stop:
            return batches, stop.value
    raise AssertionError("parallel did not finish on schedule")


def test_last_yielded_buffer_is_never_recycled():
    """Mutate-after-recycle regression: the in-flight batch stays intact.

    The transport advances the sender before the receiver consumes its
    item, so the batch yielded in the final round may still be in flight
    when ``parallel`` returns.  If it were returned to the freelist, the
    next invocation would clear and refill an object the peer is still
    reading — exactly the aliasing bug this test pins.
    """
    ch = Channel()
    batches, results = _drive(
        ch,
        {"x": (_echo, [1, 2]), "y": (_echo, [5])},
        [{"x": 10, "y": 20}, {"x": 30}],
    )
    assert results == {"x": [10, 30], "y": [20]}
    final = batches[-1]
    assert dict(final) == {"x": 2}

    # One buffer went back to the freelist; the final (in-flight) one must
    # not be it.
    assert len(ch._pool) == 1
    assert ch._pool[0] is not final

    # A second invocation churns the pool; the retained in-flight batch is
    # still bit-for-bit what was sent.
    _drive(ch, {"x": (_echo, [7, 8, 9])}, [{"x": 1}, {"x": 2}, {"x": 3}])
    assert dict(final) == {"x": 2}


def test_second_invocation_reuses_the_freed_buffer():
    ch = Channel()
    batches1, _ = _drive(
        ch,
        {"x": (_echo, [1, 2]), "y": (_echo, [5])},
        [{"x": 10, "y": 20}, {"x": 30}],
    )
    recycled = ch._pool[0]
    # The freed buffer is one this invocation actually yielded earlier
    # (delivered two rounds before the end, hence provably out of flight).
    assert any(b is recycled for b in batches1[:-1])

    batches2, _ = _drive(ch, {"z": (_echo, [4])}, [{"z": 6}])
    assert batches2[0] is recycled
    assert dict(batches2[0]) == {"z": 4}  # cleared + refilled for round 1


def test_zero_round_parallel_returns_both_buffers_to_the_pool():
    def instant(ch):
        return []
        yield  # pragma: no cover - makes this a generator

    ch = Channel()
    gen = ch.parallel({"a": instant, "b": instant})
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == {"a": [], "b": []}
    # Nothing hit the wire, so both checked-out buffers are reusable.
    assert len(ch._pool) == 2


# ---------------------------------------------------------------------------
# slot reuse vs the fresh-allocation reference (full transports)
# ---------------------------------------------------------------------------


def _iterated_parallel(ch, role, iterations, keys):
    """Many sequential ``parallel`` invocations on one channel.

    Each iteration reuses the channel's pooled buffers; any leakage of
    state across iterations (stale keys, uncleared payloads, bad
    compaction) would change the results or the transcript.
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


def test_buffer_reuse_matches_fresh_allocation_reference():
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


def test_received_payloads_survive_pool_churn():
    """Payloads are never pooled: what a sub-protocol keeps, it keeps.

    Alice's sub-protocols send fresh list payloads each round; Bob's
    retain every one.  After the run — with the pooled batch dicts having
    been cleared and recycled many times — each retained list must still
    hold exactly what was sent in its round.
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
