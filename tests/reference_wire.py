"""A reference wire for checking the transports against.

Independent of ``repro.comm.transport``: no compaction, no segment
accounting — one fresh dict per ``parallel`` round, one
generator per key stepped in key order, and one ``record_round`` per
round.  Tests run a channel protocol here and on the real transports and
require identical results and with-log transcript fingerprints.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.comm import ProtocolDesyncError, Transcript


class FreshChannel:
    """The channel surface protocols use, with nothing shared."""

    def __init__(self):
        self._phases = []
        self.bits = 0

    @contextmanager
    def phase(self, name):
        self._phases.append(name)
        try:
            yield
        finally:
            self._phases.pop()

    def send(self, nbits, payload=None, codec=None):
        if nbits < 0:
            raise ValueError(f"message size must be non-negative, got {nbits}")
        self.bits += nbits
        reply = yield payload
        return reply

    def recv(self):
        reply = yield None
        return reply

    def parallel(self, subprotocols):
        results, live, outgoing = {}, {}, {}
        for key, spec in subprotocols.items():
            gen = spec[0](self, *spec[1:]) if type(spec) is tuple else spec(self)
            try:
                outgoing[key] = next(gen)
                live[key] = gen
            except StopIteration as stop:
                results[key] = stop.value
        while live:
            incoming = yield dict(outgoing)
            outgoing = {}
            for key, gen in list(live.items()):
                try:
                    outgoing[key] = gen.send(incoming.get(key))
                except StopIteration as stop:
                    results[key] = stop.value
                    del live[key]
        return results


def fresh_run(alice_spec, bob_spec):
    """Run a spec-tuple pair on the reference wire; log kept."""
    transcript = Transcript()
    a_ch, b_ch = FreshChannel(), FreshChannel()
    a_gen = alice_spec[0](a_ch, *alice_spec[1:])
    b_gen = bob_spec[0](b_ch, *bob_spec[1:])
    a_item, b_item = next(a_gen), next(b_gen)
    while True:
        if a_ch._phases != b_ch._phases:
            raise ProtocolDesyncError("reference parties disagree on phases")
        transcript.record_round(a_ch.bits, b_ch.bits, tuple(a_ch._phases))
        a_ch.bits = b_ch.bits = 0
        a_done = b_done = False
        try:
            a_next = a_gen.send(b_item)
        except StopIteration as stop:
            a_result, a_done = stop.value, True
        try:
            b_item = b_gen.send(a_item)
        except StopIteration as stop:
            b_result, b_done = stop.value, True
        if a_done != b_done:
            raise ProtocolDesyncError("reference parties disagree on rounds")
        if a_done:
            return a_result, b_result, transcript
        a_item = a_next
