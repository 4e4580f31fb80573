"""One-round palette-sparsification protocol (ACK19-style).

The paper notes that the one-pass streaming algorithm of Assadi, Chen, and
Khanna [ACK19] yields a one-round protocol with ``O(n log³ n)`` bits: both
parties publicly sample per-vertex lists ``L(v)`` of ``Θ(log n)`` colors
(no communication — public randomness), then simultaneously exchange their
*conflict edges* — edges whose endpoints' lists intersect; by the palette
sparsification theorem there are ``O(n log² n)`` of them whp.  Each party
then deterministically solves the same list-coloring instance locally
(identical seeds ⇒ identical colorings), which is proper on the whole graph
because non-conflict edges can never be monochromatic.

Failure (whp none): if the local solver fails, one more simultaneous round
ships both full edge sets and both parties greedy-color identically.
"""

from __future__ import annotations

import math
import random

from ..comm.bits import gamma_cost, uint_cost
from ..comm.codecs import edge_list_codec
from ..comm.transport import Channel, Transport, resolve_transport
from ..rand import Stream, derived_random, permutations
from ..coloring.greedy import greedy_vertex_coloring
from ..coloring.list_coloring import solve_list_coloring
from ..graphs.graph import Graph
from ..graphs.partition import EdgePartition
from .base import BaselineResult

__all__ = [
    "ack_list_size",
    "one_round_sparsify_proto",
    "run_one_round_sparsify",
]

#: Multiplier on ``log₂ n`` for the per-vertex list size of [ACK19].
LIST_FACTOR = 4.0


def ack_list_size(n: int, num_colors: int) -> int:
    """``Θ(log n)`` list size, clamped to the palette size."""
    size = max(6, math.ceil(LIST_FACTOR * math.log2(max(n, 2))))
    return min(size, num_colors)


def one_round_sparsify_proto(
    ch: Channel,
    own_graph: Graph,
    num_colors: int,
    pub: Stream,
    solver_rng: random.Random,
):
    """One party's side of the one-round sparsification protocol."""
    n = own_graph.n
    ell = ack_list_size(n, num_colors)
    # Per-vertex derived streams: a permutation prefix is a uniform
    # ordered ell-subset of the palette.  Small palettes materialize whole
    # tables, so all n are built in one batch.
    list_base = pub.derive("ack-list")
    perms = permutations([list_base.derive(v) for v in range(n)], num_colors)
    lists = {v: {perm[i] + 1 for i in range(ell)} for v, perm in enumerate(perms)}

    conflicts = [
        (u, v) for u, v in own_graph.edges() if lists[u] & lists[v]
    ]
    edge_width = 2 * uint_cost(max(n - 1, 1))
    cost = gamma_cost(len(conflicts) + 1) + len(conflicts) * edge_width
    peer_conflicts = yield from ch.send(
        cost, tuple(conflicts), codec=edge_list_codec(n)
    )

    sparsified = Graph(n, list(conflicts) + list(peer_conflicts))
    colors = solve_list_coloring(sparsified, lists, solver_rng)
    if colors is not None:
        return colors

    # Fallback (whp unreachable): exchange everything, color identically.
    edges = tuple(own_graph.edges())
    cost = gamma_cost(len(edges) + 1) + len(edges) * edge_width
    peer_edges = yield from ch.send(
        cost, edges, codec=edge_list_codec(n)
    )
    full = Graph(n, list(edges) + list(peer_edges))
    return greedy_vertex_coloring(full, num_colors=num_colors)


def run_one_round_sparsify(
    partition: EdgePartition,
    seed: int = 0,
    transport: str | Transport | None = None,
    rand: Stream | None = None,
) -> BaselineResult:
    """Run the one-round protocol on an edge-partitioned graph, measured.

    ``rand`` roots all randomness at a caller-owned :class:`Stream`;
    ``seed`` is the back-compat alias and draws bit-for-bit the same
    tapes as before the ``rand`` parameter existed.
    """
    delta = partition.max_degree
    num_colors = delta + 1
    core = resolve_transport(transport)
    transcript = core.new_transcript()
    if delta == 0:
        return BaselineResult(
            "one_round_sparsify",
            {v: 1 for v in range(partition.n)},
            transcript,
            num_colors,
        )
    root = rand if rand is not None else Stream.from_seed(seed)
    pub_alice = root.derive("public")
    pub_bob = root.derive("public")

    # Both parties run the *same* deterministic solver, so each needs its
    # own RNG instance with identical state.
    def solver_rng() -> random.Random:
        if rand is not None:
            return rand.derive_random("sparsify-solver")
        return derived_random(seed + 1, "solver")

    a_colors, b_colors, _ = core.run(
        lambda ch: one_round_sparsify_proto(
            ch, partition.alice_graph, num_colors, pub_alice, solver_rng()
        ),
        lambda ch: one_round_sparsify_proto(
            ch, partition.bob_graph, num_colors, pub_bob, solver_rng()
        ),
        transcript,
    )
    if a_colors != b_colors:
        raise AssertionError("one-round parties disagree on the coloring")
    return BaselineResult("one_round_sparsify", a_colors, transcript, num_colors)
