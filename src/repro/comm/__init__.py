"""Two-party communication substrate: bits, messages, rounds, randomness.

This package is the "model of computation" the paper assumes — Yao's
two-party model over an edge-partitioned graph with public randomness and
simultaneous-exchange rounds — implemented as a deterministic lockstep
simulator with exact bit accounting.

Protocols talk to the substrate through the :class:`Channel` API
(``send``/``post``, ``phase`` scoping, keyed ``parallel`` sub-protocols)
and run on one wire under two transports: ``count`` (the default: bare
payloads, a bit tally, no round log) and ``strict`` (the same wire with
every payload encoded through the codecs, declared sizes verified on every
message, and the per-round log kept).

The randomness substrate itself lives in :mod:`repro.rand` (counter-based
splittable streams); ``repro.comm.randomness`` keeps only the model-level
Newman's-theorem accounting on top of it.
"""

from .codecs import (
    CodecMismatchError,
    decode_bounded_count,
    decode_color_vector,
    decode_cover_payload,
    decode_edge_list,
    decode_flag_bitmap,
    encode_bounded_count,
    encode_color_vector,
    encode_cover_payload,
    encode_edge_list,
    encode_flag_bitmap,
    verify_declared_cost,
)
from .bits import (
    BitReader,
    BitWriter,
    bit_length,
    bitmap_cost,
    gamma_cost,
    uint_cost,
    uint_width,
)
from .ledger import PhaseStats, Transcript
from .randomness import newman_overhead_bits
from .transport import (
    TRANSPORTS,
    Channel,
    ProtocolDesyncError,
    StrictTransport,
    Transport,
    resolve_transport,
)

__all__ = [
    "BitReader",
    "BitWriter",
    "Channel",
    "CodecMismatchError",
    "PhaseStats",
    "ProtocolDesyncError",
    "StrictTransport",
    "TRANSPORTS",
    "Transcript",
    "Transport",
    "bit_length",
    "bitmap_cost",
    "decode_bounded_count",
    "decode_color_vector",
    "decode_cover_payload",
    "decode_edge_list",
    "decode_flag_bitmap",
    "encode_bounded_count",
    "encode_color_vector",
    "encode_cover_payload",
    "encode_edge_list",
    "encode_flag_bitmap",
    "gamma_cost",
    "newman_overhead_bits",
    "resolve_transport",
    "uint_cost",
    "uint_width",
    "verify_declared_cost",
]
