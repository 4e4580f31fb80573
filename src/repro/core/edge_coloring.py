"""Edge-coloring protocols: Theorem 2 (Algorithm 2), Lemma 5.1, Theorem 3.

**Theorem 2** — deterministic ``(2Δ−1)``-edge coloring with ``O(n)`` bits in
``O(1)`` rounds.  The ``2Δ−1`` colors split into Alice's palette (``Δ−1``
colors), Bob's palette (``Δ−1`` colors) and one *special* color.  Each party
locally:

1. *defers* edges joining two vertices of remaining degree ``≥ Δ−1``
   (Lemma 5.2: the deferred subgraph has max degree 2);
2. extracts a *Δ-perfect matching* covering its remaining degree-``Δ``
   vertices (Lemma 5.3);
3. colors the remaining subgraph with its own ``Δ−1``-color palette via
   Fournier's theorem (Proposition 3.5).

Round 1 exchanges three ``O(n)``-bit artifacts (matching-cover bitmap,
degree-``> Δ/2`` bitmap, Lemma 5.4 cover message), after which each party
colors its matching edges with the special color or a peer-palette color.
Round 2 exchanges per-vertex availability of the peer palette's first seven
colors, letting each party greedily color its deferred subgraph
(Lemma 5.5).

**Lemma 5.1** — for constant ``Δ`` (``≤ 8`` here) a one-round protocol:
Alice colors greedily and ships per-vertex free-color bitmaps; Bob colors
greedily against them.

**Theorem 3** — ``(2Δ)``-edge coloring with *zero* communication: each party
sequentially peels edges joining two of its current-degree-``Δ`` vertices
(the peeled set is a matching, colored with one peer-palette color) and
Fournier-colors the rest with its own ``Δ``-color palette.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..comm.bits import bitmap_cost
from ..comm.codecs import encode_cover_payload, encode_flag_bitmap
from ..comm.ledger import Transcript
from ..comm.transport import Channel, Transport, resolve_transport
from ..rand import Stream
from ..coloring.fournier import fournier_edge_coloring
from ..coloring.greedy import greedy_edge_coloring
from ..graphs.graph import Edge, Graph, canonical_edge
from ..graphs.matching import delta_perfect_matching
from ..graphs.partition import EdgePartition
from .cover_colors import build_cover_message, decode_cover_message

__all__ = [
    "EdgeColoringResult",
    "SMALL_DELTA_THRESHOLD",
    "edge_coloring_proto",
    "run_edge_coloring",
    "run_zero_comm_edge_coloring",
    "zero_comm_edge_coloring_party",
]

#: Algorithm 2 requires ``Δ ≥ 8`` (its Lemma 5.5 step needs seven peer
#: colors); below that the Lemma 5.1 bounded-degree protocol runs instead.
SMALL_DELTA_THRESHOLD = 8


@dataclass
class EdgeColoringResult:
    """Outcome of a two-party edge-coloring execution."""

    alice_colors: dict[Edge, int]
    bob_colors: dict[Edge, int]
    transcript: Transcript
    num_colors: int

    @property
    def colors(self) -> dict[Edge, int]:
        """The combined coloring over all edges."""
        merged = dict(self.alice_colors)
        merged.update(self.bob_colors)
        return merged

    @property
    def total_bits(self) -> int:
        return self.transcript.total_bits

    @property
    def rounds(self) -> int:
        return self.transcript.rounds


# ---------------------------------------------------------------------------
# palettes
# ---------------------------------------------------------------------------


def party_palette(role: str, delta: int) -> list[int]:
    """The ``Δ−1`` colors owned by ``role`` in the ``2Δ−1`` palette."""
    if role == "alice":
        return list(range(1, delta))
    if role == "bob":
        return list(range(delta, 2 * delta - 1))
    raise ValueError(f"unknown role {role!r}")


def special_color(delta: int) -> int:
    """The single shared color reserved for matching edges."""
    return 2 * delta - 1


# ---------------------------------------------------------------------------
# local surgery shared by Theorem 2 and Theorem 3
# ---------------------------------------------------------------------------


def defer_heavy_edges(graph: Graph, threshold: int) -> tuple[Graph, list[Edge]]:
    """Move edges joining two remaining-degree-``≥ threshold`` vertices.

    Returns ``(remaining, deferred)``.  Mirrors the sequential loop of
    Algorithm 2; each vertex contributes at most ``deg − (threshold − 1)``
    deferred edges, so with ``threshold = Δ−1`` the deferred subgraph has
    maximum degree 2 (Lemma 5.2).
    """
    remaining = graph.copy()
    deferred: list[Edge] = []
    rows = [v for v, d in enumerate(graph.degrees()) if d >= threshold]
    heavy = set(rows)
    # The heavy-heavy edges in canonical order, read off the heavy rows.
    queue = [
        (u, w) for u in rows for w in graph.iter_neighbors(u) if w > u and w in heavy
    ]
    while queue:
        u, v = queue.pop()
        if u not in heavy or v not in heavy:
            continue
        if not remaining.has_edge(u, v):
            continue
        remaining.remove_edge(u, v)
        deferred.append(canonical_edge(u, v))
        for w in (u, v):
            if remaining.degree(w) < threshold:
                heavy.discard(w)
        # Degrees only drop, so no new heavy pairs ever appear; the initial
        # queue plus re-checks above cover every candidate edge.
    return remaining, deferred


def peel_heavy_matching(graph: Graph, delta: int) -> tuple[Graph, list[Edge]]:
    """Theorem 3's sequential peel of edges joining two degree-``Δ`` vertices.

    Each removal immediately drops both endpoints below ``Δ``, so the peeled
    edges form a matching and afterwards the degree-``Δ`` vertices are
    independent.
    """
    remaining = graph.copy()
    peeled: list[Edge] = []
    # Degrees only drop, so an edge can qualify only before any removal at
    # its endpoints, and only between two vertices of degree Δ at the
    # start; one pass over those vertices' rows in canonical order
    # implements the sequential peel (each removal demotes both endpoints
    # below Δ immediately, which also ends the row's scan).
    degree = graph.degrees()
    for u in [v for v, d in enumerate(degree) if d == delta]:
        if degree[u] != delta:
            continue
        for v in graph.iter_neighbors(u):
            if v > u and degree[v] == delta:
                degree[u] -= 1
                degree[v] -= 1
                remaining.remove_edge(u, v)
                peeled.append((u, v))
                break
    return remaining, peeled


def color_with_own_palette(graph: Graph, palette: list[int]) -> dict[Edge, int]:
    """Fournier/Vizing-color ``graph`` inside an arbitrary palette.

    The caller guarantees ``Δ(graph) ≤ |palette|`` and, on equality, that
    the max-degree vertices are independent (Proposition 3.5 applies).
    """
    if graph.m == 0:
        return {}
    base = fournier_edge_coloring(graph, num_colors=len(palette))
    return {edge: palette[c - 1] for edge, c in base.items()}


# ---------------------------------------------------------------------------
# Theorem 3: (2Δ)-edge coloring with zero communication
# ---------------------------------------------------------------------------


def zero_comm_edge_coloring_party(
    role: str,
    own_graph: Graph,
    delta: int,
) -> dict[Edge, int]:
    """One party's (purely local) side of Theorem 3.

    Palette split: Alice owns ``{1..Δ}``, Bob owns ``{Δ+1..2Δ}``.  Peeled
    matching edges take the first color of the *peer* palette — legal
    because their endpoints have full degree locally and hence no peer
    edges.
    """
    if delta == 0:
        return {}
    if role == "alice":
        own, peer = list(range(1, delta + 1)), list(range(delta + 1, 2 * delta + 1))
    elif role == "bob":
        own, peer = list(range(delta + 1, 2 * delta + 1)), list(range(1, delta + 1))
    else:
        raise ValueError(f"unknown role {role!r}")
    remaining, peeled = peel_heavy_matching(own_graph, delta)
    colors = color_with_own_palette(remaining, own)
    for edge in peeled:
        colors[edge] = peer[0]
    return colors


def run_zero_comm_edge_coloring(
    partition: EdgePartition,
    transport: str | Transport | None = None,
    rand: Stream | None = None,
) -> EdgeColoringResult:
    """Theorem 3 on an edge-partitioned graph: zero bits, zero rounds.

    ``transport`` only picks the (empty) transcript's flavor — the
    protocol never communicates, so every transport is trivially
    identical here.  ``rand`` is accepted so the edge drivers compose
    under one root :class:`~repro.rand.Stream` like the vertex driver;
    the protocol is deterministic and draws nothing from it.
    """
    transcript = resolve_transport(transport).new_transcript()
    delta = partition.max_degree
    alice = zero_comm_edge_coloring_party("alice", partition.alice_graph, delta)
    bob = zero_comm_edge_coloring_party("bob", partition.bob_graph, delta)
    return EdgeColoringResult(alice, bob, transcript, max(2 * delta, 1))


# ---------------------------------------------------------------------------
# Lemma 5.1: bounded degree, one round
# ---------------------------------------------------------------------------


#: Entry ``bits`` is the availability 7-tuple of a first-seven range whose
#: used colors are the set bits of ``bits``.
_FREE_OF_SEVEN = tuple(
    tuple(not bits >> i & 1 for i in range(7)) for bits in range(128)
)


def _nested_bitmap_codec(payload) -> list[int]:
    """Strict codec for a tuple of per-vertex boolean masks."""
    return encode_flag_bitmap([flag for row in payload for flag in row])


def bounded_degree_proto(ch: Channel, role: str, own_graph: Graph, delta: int):
    """Lemma 5.1: greedy + free-color bitmaps for constant ``Δ``."""
    num_colors = max(2 * delta - 1, 1)
    if delta <= 1:
        # A matching (or empty graph): the one color works for everyone.
        return {edge: 1 for edge in own_graph.edges()}

    if role == "alice":
        colors = greedy_edge_coloring(own_graph, num_colors=num_colors)
        used: dict[int, set[int]] = {v: set() for v in own_graph.vertices()}
        for (u, v), c in colors.items():
            used[u].add(c)
            used[v].add(c)
        masks = tuple(
            tuple(c in used[v] for c in range(1, num_colors + 1))
            for v in own_graph.vertices()
        )
        yield from ch.send(
            bitmap_cost(own_graph.n * num_colors), masks, codec=_nested_bitmap_codec
        )
        return colors

    masks = yield from ch.recv()
    forbidden = {
        v: {c for c in range(1, num_colors + 1) if masks[v][c - 1]}
        for v in own_graph.vertices()
    }
    return greedy_edge_coloring(own_graph, num_colors=num_colors, forbidden=forbidden)


# ---------------------------------------------------------------------------
# Theorem 2: Algorithm 2 for Δ ≥ 8
# ---------------------------------------------------------------------------


def edge_coloring_proto(ch: Channel, role: str, own_graph: Graph, delta: int):
    """One party's side of the ``(2Δ−1)``-edge coloring protocol."""
    if delta < SMALL_DELTA_THRESHOLD:
        result = yield from bounded_degree_proto(ch, role, own_graph, delta)
        return result

    n = own_graph.n
    own = party_palette(role, delta)
    peer = party_palette("bob" if role == "alice" else "alice", delta)
    special = special_color(delta)

    # --- local surgery (no communication) -------------------------------
    remaining, deferred = defer_heavy_edges(own_graph, delta - 1)
    matching = delta_perfect_matching(remaining, degree=delta)
    heavy = {v for v in remaining.vertices() if remaining.degree(v) == delta}
    for u, v in matching:
        remaining.remove_edge(u, v)
    colors = color_with_own_palette(remaining, own)
    # The colors on each vertex's edges, from one pass over the coloring;
    # matching edges append theirs once colored, so the same lists serve
    # the cover message (round 1) and the availability masks (round 2).
    used: list[list[int]] = [[] for _ in range(n)]
    for (u, v), c in colors.items():
        used[u].append(c)
        used[v].append(c)

    covered = [False] * n
    for u, v in matching:
        covered[u] = True
        covered[v] = True
    over_half = [2 * own_graph.degree(v) > delta for v in range(n)]
    low_vertices = [v for v in range(n) if not over_half[v]]
    cover_msg = build_cover_message(low_vertices, used, own)

    # --- round 1: bitmaps + cover message --------------------------------
    max_own_color = max(own)

    def round1_codec(payload):
        covered_flags, over_half_flags, cover = payload
        return (
            encode_flag_bitmap(covered_flags)
            + encode_flag_bitmap(over_half_flags)
            + encode_cover_payload(cover.colors, cover.bitmaps, max_own_color)
        )

    peer_covered, peer_over_half, peer_cover = yield from ch.send(
        bitmap_cost(2 * n) + cover_msg.nbits,
        (tuple(covered), tuple(over_half), cover_msg),
        codec=round1_codec,
    )
    peer_low = [v for v in range(n) if not peer_over_half[v]]
    peer_color_for = decode_cover_message(peer_low, peer_cover)

    for u, v in matching:
        hub, other = (u, v) if u in heavy else (v, u)
        if not peer_covered[other] or peer_over_half[other]:
            c = special
        else:
            c = peer_color_for[other]
        colors[canonical_edge(u, v)] = c
        used[u].append(c)
        used[v].append(c)

    # --- round 2: first-seven availability of the own palette ------------
    # own[:7] is a contiguous color range, so each vertex's used colors
    # fold into one int whose 7 bits from own[0] up index the table of
    # availability 7-tuples.
    low = own[0]
    own_masks = []
    for used_v in used:
        mask = 0
        for c in used_v:
            mask |= 1 << c
        own_masks.append(_FREE_OF_SEVEN[mask >> low & 127])
    peer_masks = yield from ch.send(
        bitmap_cost(7 * n), tuple(own_masks), codec=_nested_bitmap_codec
    )
    peer_first_seven = peer[:7]

    # --- Lemma 5.5: greedy-color the deferred subgraph -------------------
    peer_set = set(peer)
    peer_colors_used_by_me: dict[int, set[int]] = {}
    for (u, v), c in colors.items():
        if c in peer_set:
            peer_colors_used_by_me.setdefault(u, set()).add(c)
            peer_colors_used_by_me.setdefault(v, set()).add(c)
    for u, v in deferred:
        blocked: set[int] = set()
        for idx, c in enumerate(peer_first_seven):
            if not peer_masks[u][idx] or not peer_masks[v][idx]:
                blocked.add(c)
        blocked |= peer_colors_used_by_me.get(u, set())
        blocked |= peer_colors_used_by_me.get(v, set())
        choice = next((c for c in peer_first_seven if c not in blocked), None)
        if choice is None:
            raise AssertionError(
                f"Lemma 5.5 availability violated at deferred edge ({u}, {v})"
            )
        edge = canonical_edge(u, v)
        colors[edge] = choice
        peer_colors_used_by_me.setdefault(u, set()).add(choice)
        peer_colors_used_by_me.setdefault(v, set()).add(choice)

    return colors


def run_edge_coloring(
    partition: EdgePartition,
    transport: str | Transport | None = None,
    rand: Stream | None = None,
) -> EdgeColoringResult:
    """Theorem 2 on an edge-partitioned graph: ``O(n)`` bits, ``O(1)`` rounds.

    ``rand`` is accepted so the edge drivers compose under one root
    :class:`~repro.rand.Stream` like the vertex driver; Theorem 2 is
    deterministic and draws nothing from it.
    """
    delta = partition.max_degree
    num_colors = max(2 * delta - 1, 1)
    core = resolve_transport(transport)
    transcript = core.new_transcript()
    if delta == 0:
        return EdgeColoringResult({}, {}, transcript, num_colors)
    alice, bob, _ = core.run(
        lambda ch: edge_coloring_proto(ch, "alice", partition.alice_graph, delta),
        lambda ch: edge_coloring_proto(ch, "bob", partition.bob_graph, delta),
        transcript,
    )
    return EdgeColoringResult(alice, bob, transcript, num_colors)
