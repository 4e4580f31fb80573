"""The Channel/Transport API: one wire, one run loop, two transports.

A *channel protocol* is a generator function taking a :class:`Channel` as
its first argument and speaking through it:

* ``reply_payload = yield from ch.send(nbits, payload)`` — one simultaneous
  exchange; the declared cost comes from :mod:`repro.comm.bits`;
* ``reply = yield ch.post(nbits, payload)`` — the zero-overhead spelling
  of ``send`` for the hottest inner loops: ``post`` commits the declared
  cost and returns the wire item (the payload itself) without spinning up
  a delegate generator per exchange, and the protocol yields it directly;
* ``with ch.phase("gather"):`` — phase scoping; the transport attributes
  every round recorded inside the block to the named phase (both parties
  must be in identical phase stacks each round — a mismatch is a desync);
* ``results = yield from ch.parallel({key: spec})`` — keyed sub-protocols
  sharing rounds (the round cost is the max over sub-protocols, the bit
  cost the sum).  A spec is a factory ``factory(sub) -> generator`` or a
  *spec tuple* ``(proto, arg1, ...)`` invoked as ``proto(sub, arg1, ...)``
  (cheaper than building one closure per key in per-vertex fan-outs).

A protocol pair runs with ``TRANSPORTS[name].run((proto, *args), (proto,
*args))``.  The wire is the paper's model directly: payloads travel bare,
declared bits accumulate in an integer tally on each channel, and the run
loop drains both tallies once per round.  The two transports share that
wire and that loop:

* ``count`` (:class:`Transport`) — the default: the ledger is updated per
  contiguous phase segment and no per-round log is kept;
* ``strict`` (:class:`StrictTransport`) — the same wire with every message
  checked by :func:`~repro.comm.codecs.verify_declared_cost` (its declared
  ``nbits`` must equal the payload's encoded length) and the per-round
  ``(a→b, b→a)`` log kept, which pins the round-by-round schedule.

Both produce bit-for-bit identical transcript aggregates.

``parallel`` yields a fresh keyed batch dict each round, so a batch the
peer still holds is never cleared or refilled, and payloads travel as the
objects the sub-protocols posted: whatever a sub-protocol receives it may
keep.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Generator, Hashable, Iterator, Mapping, Tuple

from .codecs import Codec, verify_declared_cost
from .ledger import Transcript

__all__ = [
    "Channel",
    "ProtocolDesyncError",
    "StrictChannel",
    "StrictTransport",
    "TRANSPORTS",
    "Transport",
    "resolve_transport",
]


class ProtocolDesyncError(RuntimeError):
    """Raised when Alice's and Bob's round (or phase) schedules disagree."""


#: What ``Transport.run`` accepts per party: a factory taking the party's
#: channel or a spec tuple ``(proto, args...)`` — the same forms
#: ``Channel.parallel`` accepts for sub-protocols.
PartyLike = Any

_SENTINEL = object()

#: "Party finished" marker.  On the bare-payload wire ``None`` is a
#: legitimate item (silence), so termination needs a distinct sentinel.
_DONE = object()


def _start(gen: Generator) -> tuple[Any, Any]:
    """Advance a party to its first yield; return (wire item, result)."""
    try:
        return next(gen), _SENTINEL
    except StopIteration as stop:
        return _DONE, stop.value


def _spawn(spec: Any, ch: "Channel") -> Generator:
    """Instantiate one protocol from its spec on channel ``ch``."""
    if type(spec) is tuple:
        return spec[0](ch, *spec[1:])
    return spec(ch)


class _Batch(dict):
    """Type tag for a parallel batch (a keyed payload dict).

    A bare ``dict`` subclass so the parallel driver can tell a real batch
    from an arbitrary peer payload with one ``type`` check per round.
    """

    __slots__ = ()


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


class Channel:
    """One party's session handle: bare payloads plus an integer bit tally.

    Nothing is allocated per send: the payload itself is the wire item and
    the declared cost accumulates in :attr:`pending_bits`, which the
    transport drains once per round.  Sub-channels are the channel
    itself — a channel carries no per-exchange state beyond the shared
    tally and phase stack, so no per-key session objects exist at all.
    """

    __slots__ = ("_phases", "pending_bits")

    def __init__(self) -> None:
        self._phases: list[str] = []
        #: Declared bits committed since the transport last drained the
        #: tally (i.e. this round's outgoing cost).
        self.pending_bits = 0

    # -- phase scoping ----------------------------------------------------

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Attribute every round exchanged inside the block to ``name``.

        Phase stacks are part of the common-knowledge schedule: the
        transport checks both parties agree on them each round.
        """
        self._phases.append(name)
        try:
            yield
        finally:
            self._phases.pop()

    # -- point-to-point exchanges ----------------------------------------

    def send(self, nbits: int, payload: Any = None, codec: Codec | None = None):
        """Exchange one message; returns the peer's same-round payload.

        ``codec`` is only consulted by the strict transport: it must
        encode ``payload`` into exactly ``nbits`` bits (simple integer
        and bitmap payloads are inferred automatically).
        """
        if nbits > 0:
            self.pending_bits += nbits
        elif nbits < 0:
            raise ValueError(f"message size must be non-negative, got {nbits}")
        reply = yield payload
        return reply

    def post(self, nbits: int, payload: Any = None, codec: Codec | None = None) -> Any:
        """Build the wire item for one outgoing message, committing its cost.

        The allocation-free spelling of :meth:`send` for hot loops::

            reply = yield ch.post(nbits, payload)

        The declared cost is committed here, so the caller must yield the
        returned item in the same round (posting without yielding is a
        protocol bug).
        """
        if nbits > 0:
            self.pending_bits += nbits
        elif nbits < 0:
            raise ValueError(f"message size must be non-negative, got {nbits}")
        return payload

    def recv(self):
        """Stay silent this round; returns the peer's payload."""
        reply = yield None
        return reply

    # -- keyed sub-protocols (parallel composition) ----------------------

    def parallel(self, subprotocols: Mapping[Hashable, Any]):
        """Run keyed sub-protocols in parallel, sharing rounds.

        Each value is a factory called with the sub-channel
        (``factory(sub) -> generator``) or a spec tuple ``(proto, args...)``
        invoked as ``proto(sub, *args)``.  The iteration's round cost is
        the max over live sub-protocols and its bit cost the sum, exactly
        as in the paper's parallel composition.  Returns
        ``{key: sub-protocol return value}``.

        Sub-channels are ``self`` (channels hold no per-exchange state),
        each round's outgoing batch is a fresh dict, and finished
        sub-protocols are compacted out of flat parallel key/generator
        lists in place — the per-round cost is one dict plus one
        ``gen.send`` per live sub-protocol.
        """
        results: dict[Hashable, Any] = {}
        live_keys: list[Hashable] = []
        live_gens: list[Generator] = []
        outgoing = _Batch()
        for key, spec in subprotocols.items():
            gen = _spawn(spec, self)
            try:
                item = next(gen)
            except StopIteration as stop:
                results[key] = stop.value
            else:
                live_keys.append(key)
                live_gens.append(gen)
                outgoing[key] = item
        while live_keys:
            incoming = yield outgoing
            if type(incoming) is not _Batch:
                raise TypeError(
                    "parallel composition expects a keyed batch from peer, "
                    f"got {type(incoming).__name__}"
                )
            outgoing = _Batch()
            get = incoming.get
            write = 0
            n_live = len(live_keys)
            for read in range(n_live):
                key = live_keys[read]
                gen = live_gens[read]
                try:
                    item = gen.send(get(key))
                except StopIteration as stop:
                    results[key] = stop.value
                else:
                    outgoing[key] = item
                    if write != read:
                        live_keys[write] = key
                        live_gens[write] = gen
                    write += 1
            if write != n_live:
                del live_keys[write:]
                del live_gens[write:]
        return results


class StrictChannel(Channel):
    """The channel plus codec verification on every outgoing message.

    ``parallel`` sub-channels are the channel itself, so the check reaches
    every sub-protocol of a fan-out too.
    """

    __slots__ = ()

    def send(self, nbits: int, payload: Any = None, codec: Codec | None = None):
        verify_declared_cost(nbits, payload, codec)
        return Channel.send(self, nbits, payload)

    def post(self, nbits: int, payload: Any = None, codec: Codec | None = None) -> Any:
        verify_declared_cost(nbits, payload, codec)
        return Channel.post(self, nbits, payload)


# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------


class Transport:
    """The run loop behind a pair of channels (the ``count`` transport).

    Payloads travel bare on the wire; declared bits accumulate in each
    channel's integer tally, which the loop drains once per round (so a
    send allocates nothing — not even a pair).  Ledger updates are batched
    per contiguous phase segment instead of paying a per-round ledger
    call; when the transcript keeps a log, each round's drained
    ``(a→b, b→a)`` pair is appended to it as well.
    """

    name = "count"
    channel_class: type[Channel] = Channel

    def new_transcript(self) -> Transcript:
        """A transcript configured for this transport's bookkeeping."""
        return Transcript(record_log=False)

    def run(
        self,
        alice: PartyLike,
        bob: PartyLike,
        transcript: Transcript | None = None,
    ) -> Tuple[Any, Any, Transcript]:
        """Run a channel-protocol pair to completion.

        ``alice``/``bob`` take the same spec forms as
        :meth:`Channel.parallel`: a factory called with the party's channel
        (``factory(ch) -> generator``) or a spec tuple ``(proto, args...)``
        invoked as ``proto(ch, *args)``.  Returns
        ``(alice_result, bob_result, transcript)``; raises
        :class:`ProtocolDesyncError` if the parties' round or phase
        schedules disagree.
        """
        if transcript is None:
            transcript = self.new_transcript()
        a_ch = self.channel_class()
        b_ch = self.channel_class()
        a_gen = _spawn(alice, a_ch)
        b_gen = _spawn(bob, b_ch)

        a_phases = a_ch._phases
        b_phases = b_ch._phases
        record_segment = transcript.record_segment
        log = transcript.round_log if transcript.record_log else None

        # The stepping is inlined because this loop runs once per round of
        # every protocol in the repo; the try/except costs nothing on the
        # non-raising path.
        a_item, a_result = _start(a_gen)
        b_item, b_result = _start(b_gen)
        a_done = a_item is _DONE
        b_done = b_item is _DONE
        a_send = a_gen.send
        b_send = b_gen.send

        # Contiguous rounds sharing one phase stack accumulate in locals
        # and flush in bulk — the hot loop's only per-round obligations are
        # draining the two bit tallies and the schedule checks.
        seg_phases: list[str] = []
        a2b = b2a = rounds = messages = 0
        while True:
            if a_done or b_done:
                if rounds:
                    record_segment(a2b, b2a, rounds, messages, tuple(seg_phases))
                if a_done and b_done:
                    return a_result, b_result, transcript
                lagging = "Bob" if a_done else "Alice"
                raise ProtocolDesyncError(
                    f"{lagging} wants another round after round "
                    f"{transcript.rounds}, but the peer already terminated"
                )
            if a_phases != b_phases:
                raise ProtocolDesyncError(
                    f"phase schedules disagree in round "
                    f"{transcript.rounds + rounds}: Alice {a_phases!r} vs "
                    f"Bob {b_phases!r}"
                )
            if a_phases != seg_phases:
                if rounds:
                    record_segment(a2b, b2a, rounds, messages, tuple(seg_phases))
                    a2b = b2a = rounds = messages = 0
                seg_phases = list(a_phases)
            # The tallies hold the bits committed while producing this
            # round's items (sends tally before they yield).
            a_bits = a_ch.pending_bits
            if a_bits:
                a_ch.pending_bits = 0
                a2b += a_bits
                messages += 1
            b_bits = b_ch.pending_bits
            if b_bits:
                b_ch.pending_bits = 0
                b2a += b_bits
                messages += 1
            if log is not None:
                log.append((a_bits, b_bits))
            rounds += 1
            incoming_for_bob = a_item
            try:
                a_item = a_send(b_item)
            except StopIteration as stop:
                a_result = stop.value
                a_done = True
            try:
                b_item = b_send(incoming_for_bob)
            except StopIteration as stop:
                b_result = stop.value
                b_done = True


class StrictTransport(Transport):
    """The count wire plus codec checks and the per-round log.

    Every message's payload is encoded through :mod:`repro.comm.codecs`
    (via an explicit per-send codec or shape inference) and the declared
    ``nbits`` must equal the encoded length, else
    :class:`~repro.comm.codecs.CodecMismatchError` is raised at the
    offending send.
    """

    name = "strict"
    channel_class = StrictChannel

    def new_transcript(self) -> Transcript:
        return Transcript()


#: Transport registry: the CLI/engine ``--transport`` axis.  Transports are
#: stateless, so the registry holds shared instances.
TRANSPORTS: dict[str, Transport] = {
    "count": Transport(),
    "strict": StrictTransport(),
}


def resolve_transport(transport: str | Transport | None) -> Transport:
    """Coerce a transport name (or ``None`` → count) to an instance."""
    if transport is None:
        return TRANSPORTS["count"]
    if isinstance(transport, Transport):
        return transport
    try:
        return TRANSPORTS[transport]
    except KeyError:
        raise ValueError(
            f"unknown transport {transport!r}; expected one of "
            f"{sorted(TRANSPORTS)}"
        ) from None
