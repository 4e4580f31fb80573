"""Property/fuzz tests for channel semantics across both transports.

The example-based parity suite runs the repo's real protocols; these tests
instead *generate* protocol shapes — random phase nesting, random keyed
parallel compositions whose sub-protocols finish in different rounds,
zero-payload sends, one-sided silence — from a seed, and assert the two
hard contracts hold on every shape:

1. count == strict == the unpooled reference wire of
   ``tests/reference_wire.py``, bit for bit: identical return values and
   identical with-log transcript fingerprints (count keeps the log when
   its transcript asks for one);
2. schedule violations (mismatched phase stacks, one party terminating
   early) raise :class:`ProtocolDesyncError` on every transport — never a
   silent desync.

Shapes are built from ``random.Random(seed)`` only, so failures replay
from the printed seed.
"""

from __future__ import annotations

import random

import pytest

from repro.comm import TRANSPORTS, Transcript
from repro.comm.transport import ProtocolDesyncError

from .reference_wire import fresh_run

ALL_TRANSPORTS = sorted(TRANSPORTS)

# ---------------------------------------------------------------------------
# random protocol shapes
# ---------------------------------------------------------------------------
#
# A *plan* is a list of steps, interpreted identically by both parties
# (the schedule is common knowledge; only payload values differ by role):
#
#   ("both",  width, a_val, b_val)   both parties send width-bit ints
#   ("zero",)                        both parties send zero-payload silence
#   ("one",   role, width, val)      `role` sends, the other recv()s
#   ("phase", name, subplan)         both parties scope subplan in a phase
#   ("par",   {key: subplan})        keyed parallel; per-key plans have
#                                    different lengths, so sub-protocols
#                                    finish in different rounds


def _random_plan(rng: random.Random, depth: int, budget: list[int]) -> list:
    plan = []
    steps = rng.randint(1, 4)
    for _ in range(steps):
        if budget[0] <= 0:
            break
        budget[0] -= 1
        kinds = ["both", "both", "zero", "one"]
        if depth < 2:
            kinds += ["phase", "par"]
        kind = rng.choice(kinds)
        if kind == "both":
            width = rng.randint(1, 12)
            plan.append(
                (
                    "both",
                    width,
                    rng.randrange(1 << width),
                    rng.randrange(1 << width),
                )
            )
        elif kind == "zero":
            plan.append(("zero",))
        elif kind == "one":
            width = rng.randint(1, 8)
            plan.append(
                ("one", rng.choice(["alice", "bob"]), width, rng.randrange(1 << width))
            )
        elif kind == "phase":
            name = f"ph{rng.randint(0, 5)}"
            sub = _random_plan(rng, depth + 1, budget)
            if sub:
                plan.append(("phase", name, sub))
        else:
            keys = rng.sample(
                [0, 1, "k2", ("tup", 3), 4, "k5", 6, 7], rng.randint(1, 4)
            )
            keyed = {}
            for key in keys:
                sub = _random_plan(rng, depth + 1, budget)
                keyed[key] = sub or [("zero",)]
            if keyed:
                plan.append(("par", keyed))
    return plan


def _run_plan(ch, plan, role):
    """Interpret a plan on a channel; returns the observed reply trace."""
    trace = []
    for step in plan:
        kind = step[0]
        if kind == "both":
            _, width, a_val, b_val = step
            reply = yield from ch.send(width, a_val if role == "alice" else b_val)
            trace.append(reply)
        elif kind == "zero":
            reply = yield from ch.send(0, None)
            trace.append(reply)
        elif kind == "one":
            _, sender, width, val = step
            if role == sender:
                reply = yield from ch.send(width, val)
            else:
                reply = yield from ch.recv()
            trace.append(reply)
        elif kind == "phase":
            _, name, sub = step
            with ch.phase(name):
                inner = yield from _run_plan(ch, sub, role)
            trace.append(inner)
        else:
            _, keyed = step
            results = yield from ch.parallel(
                {key: (_run_plan, sub, role) for key, sub in keyed.items()}
            )
            trace.append(sorted(results.items(), key=lambda kv: repr(kv[0])))
    return trace


def _plan_specs(seed: int):
    rng = random.Random(seed)
    plan = _random_plan(rng, 0, [rng.randint(4, 14)])
    if not plan:
        plan = [("both", 3, 1, 2)]
    return (_run_plan, plan, "alice"), (_run_plan, plan, "bob")


@pytest.mark.parametrize("seed", range(40))
def test_random_shapes_are_transport_invariant(seed):
    alice, bob = _plan_specs(seed)
    a_ref, b_ref, ref = fresh_run(alice, bob)
    for transport in ALL_TRANSPORTS:
        for transcript in (TRANSPORTS[transport].new_transcript(), Transcript()):
            a, b, transcript = TRANSPORTS[transport].run(alice, bob, transcript)
            assert a == a_ref, (seed, transport)
            assert b == b_ref, (seed, transport)
            assert transcript.fingerprint() == ref.fingerprint(), (seed, transport)
            if transcript.record_log:
                assert transcript.fingerprint(with_log=True) == ref.fingerprint(
                    with_log=True
                ), (seed, transport)
            else:
                assert transport == "count" and transcript.round_log == []


@pytest.mark.parametrize("seed", range(40))
def test_phase_stack_mismatch_always_raises(seed):
    """Perturbing one party's phase schedule desyncs loudly, everywhere.

    Alice wraps her steps in an extra phase (or renames one) that Bob does
    not; every transport must raise ProtocolDesyncError — not silently
    misattribute the rounds.
    """
    rng = random.Random(seed)
    plan = _random_plan(rng, 0, [rng.randint(4, 14)]) or [("both", 3, 1, 2)]

    def alice(ch):
        with ch.phase("alice-only"):
            result = yield from _run_plan(ch, plan, "alice")
        return result

    for transport in ALL_TRANSPORTS:
        core = TRANSPORTS[transport]
        with pytest.raises(ProtocolDesyncError):
            core.run(alice, (_run_plan, plan, "bob"), core.new_transcript())


@pytest.mark.parametrize("seed", range(20))
def test_renamed_nested_phase_always_raises(seed):
    """A nested phase whose *name* differs between the parties desyncs."""
    rng = random.Random(seed)
    inner = _random_plan(rng, 1, [rng.randint(2, 6)]) or [("both", 3, 1, 2)]

    def party(name):
        def proto(ch):
            with ch.phase("outer"):
                with ch.phase(name):
                    result = yield from _run_plan(
                        ch, inner, "alice" if name == "mine" else "bob"
                    )
            return result

        return proto

    for transport in ALL_TRANSPORTS:
        core = TRANSPORTS[transport]
        with pytest.raises(ProtocolDesyncError):
            core.run(party("mine"), party("yours"), core.new_transcript())


@pytest.mark.parametrize("seed", range(20))
def test_early_termination_always_raises(seed):
    """One party running an extra round past the other's end desyncs."""
    rng = random.Random(seed)
    plan = _random_plan(rng, 0, [rng.randint(2, 8)]) or [("both", 3, 1, 2)]

    def greedy_alice(ch):
        result = yield from _run_plan(ch, plan, "alice")
        yield from ch.send(4, 9)  # one round the peer never plays
        return result

    for transport in ALL_TRANSPORTS:
        core = TRANSPORTS[transport]
        with pytest.raises(ProtocolDesyncError):
            core.run(greedy_alice, (_run_plan, plan, "bob"), core.new_transcript())
