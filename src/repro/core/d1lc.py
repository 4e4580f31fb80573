"""Protocol for (degree+1)-list coloring — Lemma 3.3.

Two-party D1LC (Section 3.3): edges of ``G`` are split between the parties;
for each vertex ``v`` Alice holds a list ``Ψ_A(v) ⊆ [m]`` and Bob holds
``Ψ_B(v) ⊆ [m]``; the effective palette is ``Ψ(v) = Ψ_A(v) ∩ Ψ_B(v)`` with
``|Ψ(v)| ≥ deg(v) + 1``.  The protocol:

1. *Sparsify* (Proposition 3.2): for every vertex run ``Θ(log² n)``
   parallel Color-Sample instances over the complements of the lists (one
   :func:`~repro.core.color_sample.color_sample_batch_proto` fan-out over
   every vertex's slots) to draw ``L(v) ⊆ Ψ(v)``; drop every edge whose
   endpoints' samples are disjoint (any proper coloring from the
   ``L``-lists is then automatically proper on the dropped edges).
2. *Gather*: Bob ships his surviving edges to Alice; whp the sparsified
   graph ``H`` has ``O(n log² n)`` edges.
3. *Solve*: Alice list-colors ``H`` from the ``L``-lists (randomized greedy
   + repair) and broadcasts the colors.
4. *Fallback* (probability ``≤ 1/n^c``): if ``H`` is too dense or Alice's
   solver fails, Bob ships his entire instance and Alice runs the
   always-successful sequential D1LC greedy.

Expected ``O(n log² n log² Δ + n log³ n)`` bits, ``O(log Δ)`` worst-case
rounds (the parallel sampling dominates).
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping, Sequence

from ..comm.bits import gamma_cost, uint_cost
from ..comm.codecs import (
    edge_list_codec,
    encode_color_vector,
    encode_edge_list,
    encode_flag_bitmap,
)
from ..comm.transport import Channel
from ..rand import Stream, permutations
from ..coloring.greedy import greedy_d1lc_coloring
from ..coloring.list_coloring import solve_list_coloring
from ..graphs.graph import Graph
from .color_sample import color_sample_batch_proto
from .probes import surviving_edges

__all__ = ["d1lc_proto", "sample_list_size", "sparsity_threshold"]

#: Multiplier on ``log² n`` for the per-vertex sample-list size (Prop. 3.2).
SAMPLE_FACTOR = 2.0
#: Multiplier on ``n log² n`` for the sparsified-edge-count sanity threshold.
SPARSITY_FACTOR = 4.0


def sample_list_size(num_vertices: int) -> int:
    """``Θ(log² n)`` sample-list size for palette sparsification."""
    base = math.log2(max(num_vertices, 2))
    return max(4, math.ceil(SAMPLE_FACTOR * base * base))


def sparsity_threshold(num_vertices: int) -> int:
    """Edge-count bound above which the protocol falls back to gathering."""
    base = math.log2(max(num_vertices, 2))
    return max(8, math.ceil(SPARSITY_FACTOR * max(num_vertices, 1) * base * base))


def _verdict_codec(m: int):
    """Strict codec for Alice's ("ok", colors) / ("fallback", None) verdict."""

    def encode(payload):
        tag, packed = payload
        if tag == "ok":
            return encode_flag_bitmap([True]) + encode_color_vector(packed, m)
        return encode_flag_bitmap([False])

    return encode


def _instance_codec(n: int, m: int):
    """Strict codec for Bob's fallback instance: edges + palette bitmaps."""

    def encode(payload):
        edges, lists = payload
        bits = encode_edge_list(edges, n)
        for _v, colors in lists:
            members = set(colors)
            bits += encode_flag_bitmap([c in members for c in range(1, m + 1)])
        return bits

    return encode


def d1lc_proto(
    ch: Channel,
    role: str,
    own_graph: Graph,
    own_lists: Mapping[int, set[int]],
    active: Sequence[int],
    num_colors: int,
    pub: Stream,
    rng: random.Random,
):
    """One party's side of the D1LC protocol (Lemma 3.3).

    ``own_graph`` holds this party's edges among ``active`` vertices (on the
    full vertex range); ``own_lists[v] ⊆ [1..num_colors]`` is this party's
    list.  Requires ``|Ψ_A(v)| + |Ψ_B(v)| ≥ m + 1`` so that Color-Sample's
    slack precondition holds — automatic for instances arising from partial
    ``(Δ+1)``-colorings (Section 4.4).  Returns the full coloring of the
    active vertices (common knowledge).
    """
    if role not in ("alice", "bob"):
        raise ValueError(f"role must be 'alice' or 'bob', got {role!r}")
    active = sorted(active)
    n_active = len(active)
    if n_active == 0:
        return {}
    m = num_colors
    palette = set(range(1, m + 1))

    # Step 1: palette sparsification via one Color-Sample fan-out over
    # every (v, j) slot, with all the palette permutations drawn up front
    # in one batch.  Samples join L(v) in the order the instances finish.
    ell = sample_list_size(n_active)
    owners = []
    streams = []
    for v in active:
        v_base = pub.derive("d1lc", v)
        for j in range(ell):
            owners.append(v)
            streams.append(v_base.derive(j))
    complements = {v: palette - set(own_lists[v]) for v in active}
    draws = yield from color_sample_batch_proto(
        ch, m, [complements[v] for v in owners], streams, permutations(streams, m)
    )
    sampled: dict[int, set[int]] = {v: set() for v in active}
    for i, color in draws.items():
        sampled[owners[i]].add(color)

    # Step 2: locally drop own edges with disjoint sampled lists (one int
    # bitmask per vertex, one AND per edge).
    surviving = surviving_edges(own_graph.edges(), sampled)

    # Step 3: Bob ships his surviving edges to Alice; Alice tries to solve
    # the sparsified instance and either broadcasts colors or requests the
    # fallback.
    n = own_graph.n
    edge_width = 2 * uint_cost(max(n - 1, 1))

    if role == "bob":
        cost = gamma_cost(len(surviving) + 1) + len(surviving) * edge_width
        yield from ch.send(cost, tuple(surviving), codec=edge_list_codec(n))
        tag, packed = yield from ch.recv()
        if tag == "ok":
            return _unpack_colors(packed, active)
        # Step 4 (fallback): ship the whole local instance, receive colors.
        edges = tuple(own_graph.edges())
        lists = tuple((v, tuple(sorted(own_lists[v]))) for v in active)
        cost = (
            gamma_cost(len(edges) + 1)
            + len(edges) * edge_width
            + n_active * m  # palette bitmaps
        )
        yield from ch.send(cost, (edges, lists), codec=_instance_codec(n, m))
        final = yield from ch.recv()
        return _unpack_colors(final, active)

    peer_edges = yield from ch.recv()
    sparse = type(own_graph)(n, list(surviving) + list(peer_edges))
    colors: dict[int, int] | None = None
    if sparse.m <= sparsity_threshold(n_active):
        induced_sparse = _induced_on(sparse, active)
        induced_lists = {idx: sampled[v] for idx, v in enumerate(active)}
        local = solve_list_coloring(induced_sparse, induced_lists, rng)
        if local is not None:
            colors = {active[idx]: c for idx, c in local.items()}
    if colors is not None:
        yield from ch.send(
            1 + n_active * uint_cost(m),
            ("ok", _pack_colors(colors, active)),
            codec=_verdict_codec(m),
        )
        return colors

    # Step 4 (fallback): gather Bob's instance and solve sequentially.
    yield from ch.send(1, ("fallback", None), codec=_verdict_codec(m))
    bob_edges, bob_lists_packed = yield from ch.recv()
    full = type(own_graph)(n, list(own_graph.edges()) + list(bob_edges))
    merged_lists = {v: set(own_lists[v]) & set(blist) for v, blist in bob_lists_packed}
    induced = _induced_on(full, active)
    local_lists = {idx: merged_lists[v] for idx, v in enumerate(active)}
    local_colors = greedy_d1lc_coloring(induced, local_lists)
    colors = {active[idx]: c for idx, c in local_colors.items()}
    yield from ch.send(
        n_active * uint_cost(m),
        _pack_colors(colors, active),
        codec=lambda p: encode_color_vector(p, m),
    )
    return colors


def _pack_colors(colors: dict[int, int] | None, active: Sequence[int]) -> tuple | None:
    """Order colors by the (public) sorted active list for transmission."""
    if colors is None:
        return None
    return tuple(colors[v] for v in active)


def _unpack_colors(packed: Sequence[int], active: Sequence[int]) -> dict[int, int]:
    """Inverse of :func:`_pack_colors`."""
    return {v: c for v, c in zip(active, packed)}


def _induced_on(graph: Graph, active: Sequence[int]) -> Graph:
    """The subgraph induced on ``active``, relabelled to ``0..|active|-1``."""
    index = {v: i for i, v in enumerate(active)}
    induced = type(graph)(len(active))
    packed = graph.pack_vertices(active)
    for v in active:
        for u in graph.neighbors_in(v, packed):
            if v < u:
                induced.add_edge(index[v], index[u])
    return induced
