"""Pinned transcript golden digests for every smoke scenario × transport.

The comm layer's one hard contract is that both transports produce
bit-for-bit identical transcripts — and that refactors of the comm
machinery (pooling, segment accounting, the wire itself) change *nothing*
about the recorded schedule.  The parity suite checks transports against each
other, which catches relative divergence but not a refactor that shifts
every transport the same way.  These goldens pin the absolute contents:
sha256 digests of each scenario's canonical transcript serialization
(:meth:`repro.comm.ledger.Transcript.fingerprint`), in the same
golden-digest style ``tests/test_rand_core.py`` uses for stream prefixes.

If a change legitimately alters schedules or accounting (e.g. a protocol
change, new draw order), re-pin by running this file's ``_regenerate``
helper and reviewing the diff — the point is that it fails *loudly*.
"""

from __future__ import annotations

import pytest

from repro.comm import TRANSPORTS, Transcript, Transport
from repro.core import (
    run_edge_coloring,
    run_vertex_coloring,
    run_zero_comm_edge_coloring,
)
from repro.engine import smoke_scenarios
from repro.engine.runner import build_partition

ALL_TRANSPORTS = sorted(TRANSPORTS)

#: Drivers by protocol name, returning the result object with .transcript.
DRIVERS = {
    "vertex": lambda part, seed, t: run_vertex_coloring(
        part, seed=seed, transport=t
    ),
    "edge": lambda part, seed, t: run_edge_coloring(part, transport=t),
    "edge_zero_comm": lambda part, seed, t: run_zero_comm_edge_coloring(
        part, transport=t
    ),
}

#: Transport-invariant digests (summary + per-phase stats, no round log).
#: Every transport must reproduce these bit-for-bit.
AGGREGATE = {
    "vertex/regular(d=8,n=64)/random/csr":
        "01d57b702a3c0a71fdf6172267377d8bc6b1043f6547e226ecc4c0c53378364f",
    "vertex/regular(d=8,n=64)/all_alice/csr":
        "35a3443576df28a06d898eb134999b9a4b6babc493388720001b17cafa23b925",
    "vertex/regular(d=8,n=64)/degree_split/csr":
        "35a3443576df28a06d898eb134999b9a4b6babc493388720001b17cafa23b925",
    "edge/regular(d=8,n=64)/random/csr":
        "51749bdab8f33ed2ba0dd81351b1625f9b894f0619b64ea9ad8eb6f1096036db",
    "edge/regular(d=8,n=64)/all_alice/csr":
        "935606a481ba4441116653e8590e680e7bb4549400b7ff5765fce1f74442d471",
    "edge/regular(d=8,n=64)/degree_split/csr":
        "a35d87898b7f4ebf2809438ce9b1a9b9a346abfe4391187f41b9c9a25e7e1c7c",
    "edge_zero_comm/regular(d=8,n=64)/random/csr":
        "44d6d77daef12fa369f87164471c96b0d1a204a7c12d3e5d76770cfc60172fb5",
    "edge_zero_comm/regular(d=8,n=64)/all_alice/csr":
        "44d6d77daef12fa369f87164471c96b0d1a204a7c12d3e5d76770cfc60172fb5",
    "edge_zero_comm/regular(d=8,n=64)/degree_split/csr":
        "44d6d77daef12fa369f87164471c96b0d1a204a7c12d3e5d76770cfc60172fb5",
    "vertex/gnp(n=48,p=0.2)/random/csr":
        "3ce69584db0d0d6d752ef977ab8c53639aa0e1fe74dfd9b06404c340c11b2155",
    "edge/hypercube(dimension=5)/crossing/csr":
        "bacefeb31fb9b0247cc9dd080584e44eab7d7839505f34a3da391e5fdf91c1ae",
    "edge/conflict(d_base=8,d_overlay=4,half=64)/random/csr":
        "8d68ce1e5adc6dfc905e809ae911379a72abd3dec961acfd7c00075b604fc1d9",
}

#: Digests including the per-round log, pinning the round-by-round
#: schedule.  Only a log-keeping transcript reproduces these: strict's,
#: or one handed to the count transport, whose own keeps no log.
WITH_LOG = {
    "vertex/regular(d=8,n=64)/random/csr":
        "8de1c7e5430f8744fc6fbc4e1a085cfc8674783606e4662369eb797664858cd1",
    "vertex/regular(d=8,n=64)/all_alice/csr":
        "3dd416b1dbebe5d72eb128ae0baa1acb075ed5c20f03077dc6d34d39bfaed9d9",
    "vertex/regular(d=8,n=64)/degree_split/csr":
        "3dd416b1dbebe5d72eb128ae0baa1acb075ed5c20f03077dc6d34d39bfaed9d9",
    "edge/regular(d=8,n=64)/random/csr":
        "1d0acaff53a28269298e6cea2d3e02994ab75b73c79280066768caa795747261",
    "edge/regular(d=8,n=64)/all_alice/csr":
        "e804bc0eb4bdeb38ea368323eb6762f9ec8d5e9ad16cd4d6aa19213a8f4f62f7",
    "edge/regular(d=8,n=64)/degree_split/csr":
        "12fd150863cd364a2fd22e5403151923c76612c16799a248ce8df7986e2f0538",
    "edge_zero_comm/regular(d=8,n=64)/random/csr":
        "20a0cd152987678ae6d244032ffe175e7a1ed42d77a50e77f1d75ce22a3a5cea",
    "edge_zero_comm/regular(d=8,n=64)/all_alice/csr":
        "20a0cd152987678ae6d244032ffe175e7a1ed42d77a50e77f1d75ce22a3a5cea",
    "edge_zero_comm/regular(d=8,n=64)/degree_split/csr":
        "20a0cd152987678ae6d244032ffe175e7a1ed42d77a50e77f1d75ce22a3a5cea",
    "vertex/gnp(n=48,p=0.2)/random/csr":
        "0294724a28a8584bcf5cfd59df9a8399c410b2a0ca481cee8556fd4853d94ec2",
    "edge/hypercube(dimension=5)/crossing/csr":
        "e82074764cfbd972c20e9c1258a069e34ce0d41ff136d854eef53f0166babd3a",
    "edge/conflict(d_base=8,d_overlay=4,half=64)/random/csr":
        "aa7cd0b24754b9296af1715d408d89323003c993bce8039961342512a0505d42",
}


def _regenerate():  # pragma: no cover - maintenance helper
    """Print fresh golden tables (run manually after an intended change)."""
    for table, with_log in (("AGGREGATE", False), ("WITH_LOG", True)):
        print(f"{table} = {{")
        for scenario in smoke_scenarios():
            part = build_partition(scenario)
            result = DRIVERS[scenario.protocol](
                part, scenario.effective_seed, "strict"
            )
            digest = result.transcript.fingerprint(with_log=with_log)
            print(f'    "{scenario.name}":\n        "{digest}",')
        print("}")


def test_golden_tables_cover_exactly_the_smoke_grid():
    """Stale or missing golden keys fail before any scenario runs."""
    names = {scenario.name for scenario in smoke_scenarios()}
    assert set(AGGREGATE) == names
    assert set(WITH_LOG) == names


@pytest.mark.parametrize("scenario", smoke_scenarios(), ids=lambda s: s.name)
def test_transcript_matches_golden_on_every_transport(scenario):
    part = build_partition(scenario)
    driver = DRIVERS[scenario.protocol]
    for transport in ALL_TRANSPORTS:
        result = driver(part, scenario.effective_seed, transport)
        transcript = result.transcript
        assert transcript.fingerprint() == AGGREGATE[scenario.name], transport
        if transport == "count":
            # The count transport keeps no log by contract; everything
            # else it records must still match the reference exactly.
            assert transcript.round_log == []
        else:
            assert (
                transcript.fingerprint(with_log=True) == WITH_LOG[scenario.name]
            ), transport
            assert len(transcript.round_log) == transcript.rounds


class _LoggedCount(Transport):
    """The count transport with the per-round log switched on."""

    def new_transcript(self) -> Transcript:
        return Transcript()


@pytest.mark.parametrize("scenario", smoke_scenarios(), ids=lambda s: s.name)
def test_count_wire_with_the_log_on_matches_the_with_log_golden(scenario):
    """The log follows the transcript: count + log reproduces ``WITH_LOG``."""
    part = build_partition(scenario)
    result = DRIVERS[scenario.protocol](
        part, scenario.effective_seed, _LoggedCount()
    )
    assert result.transcript.fingerprint(with_log=True) == WITH_LOG[scenario.name]


def test_fingerprint_is_accumulation_order_invariant():
    """Phases hash sorted by name, so attribution order cannot leak in."""
    a = Transcript(record_log=False)
    a.record_segment(3, 4, 2, 3, ("p", "q"))
    a.record_segment(1, 0, 1, 1, ("r",))
    b = Transcript(record_log=False)
    b.record_segment(1, 0, 1, 1, ("r",))
    b.record_segment(3, 4, 2, 3, ("q", "p"))
    assert a.fingerprint() == b.fingerprint()


def test_fingerprint_with_log_pins_the_schedule():
    """Same aggregates, different round profile → same aggregate digest,
    different with-log digest."""
    a = Transcript()
    a.record_round(2, 0)
    a.record_round(1, 3)
    b = Transcript()
    b.record_round(1, 3)
    b.record_round(2, 0)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint(with_log=True) != b.fingerprint(with_log=True)
