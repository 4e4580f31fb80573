"""Gather-and-Vizing: a trivial ``(Δ+1)``-edge coloring protocol.

The paper's conclusion asks for the optimal communication complexity of
``(Δ+1)``-edge coloring (Vizing's theorem guarantees existence).  No
non-trivial protocol is known; this module pins the *trivial* upper bound
as an anchor: both parties exchange their full edge sets in one
simultaneous round (``Θ(m log n)`` bits) and each runs the same
deterministic Misra–Gries/Vizing algorithm locally.  The open question is
whether ``O(n·polylog)`` — or even ``O(n)`` — is achievable; the E4
experiment's contrast row shows how far this anchor sits above Theorem 2's
``(2Δ−1)``-color cost.
"""

from __future__ import annotations

from ..comm.bits import gamma_cost, uint_cost
from ..comm.codecs import edge_list_codec
from ..comm.transport import Channel, Transport, resolve_transport
from ..coloring.vizing import vizing_edge_coloring
from ..graphs.graph import Graph, canonical_edge
from ..graphs.partition import EdgePartition
from .base import BaselineResult

__all__ = ["run_vizing_gather", "vizing_gather_proto"]


def vizing_gather_proto(ch: Channel, own_graph: Graph, num_colors: int):
    """One party's side: ship everything, Vizing-color the union locally.

    Returns only the colors of this party's own edges (the model's output
    requirement for edge coloring).
    """
    n = own_graph.n
    edges = tuple(own_graph.edges())
    edge_width = 2 * uint_cost(max(n - 1, 1))
    cost = gamma_cost(len(edges) + 1) + len(edges) * edge_width
    peer_edges = yield from ch.send(
        cost, edges, codec=edge_list_codec(n)
    )
    union = Graph(n, list(edges) + list(peer_edges))
    full_coloring = vizing_edge_coloring(union, num_colors=num_colors)
    return {
        canonical_edge(u, v): full_coloring[canonical_edge(u, v)]
        for u, v in edges
    }


def run_vizing_gather(
    partition: EdgePartition,
    transport: str | Transport | None = None,
) -> BaselineResult:
    """Measure the trivial ``(Δ+1)``-edge coloring protocol.

    The result's ``colors`` hold the union coloring; ``num_colors`` is the
    Vizing palette ``Δ+1``.
    """
    delta = partition.max_degree
    num_colors = max(delta + 1, 1)
    core = resolve_transport(transport)
    transcript = core.new_transcript()
    alice, bob, _ = core.run(
        lambda ch: vizing_gather_proto(ch, partition.alice_graph, num_colors),
        lambda ch: vizing_gather_proto(ch, partition.bob_graph, num_colors),
        transcript,
    )
    merged = dict(alice)
    merged.update(bob)
    return BaselineResult("vizing_gather", merged, transcript, num_colors)
