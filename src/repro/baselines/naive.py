"""Naive full-exchange baseline: ship the graph, color locally.

Both parties simultaneously send their entire edge sets; each then runs the
same deterministic greedy coloring on the reconstructed graph.  One round,
``Θ(m log n)`` bits — the upper anchor every ``O(n)``-bit protocol is
compared against (it loses by a factor ``Θ(Δ log n)`` on dense graphs).
"""

from __future__ import annotations

from ..comm.bits import gamma_cost, uint_cost
from ..comm.codecs import edge_list_codec
from ..comm.transport import Channel, Transport, resolve_transport
from ..coloring.greedy import greedy_vertex_coloring
from ..graphs.graph import Graph
from ..graphs.partition import EdgePartition
from .base import BaselineResult

__all__ = ["naive_exchange_proto", "run_naive_exchange"]


def naive_exchange_proto(ch: Channel, own_graph: Graph, num_colors: int):
    """One party's side of the full-exchange protocol."""
    n = own_graph.n
    edges = tuple(own_graph.edges())
    edge_width = 2 * uint_cost(max(n - 1, 1))
    cost = gamma_cost(len(edges) + 1) + len(edges) * edge_width
    peer_edges = yield from ch.send(
        cost, edges, codec=edge_list_codec(n)
    )
    full = Graph(n, list(edges) + list(peer_edges))
    return greedy_vertex_coloring(full, num_colors=num_colors)


def run_naive_exchange(
    partition: EdgePartition,
    transport: str | Transport | None = None,
) -> BaselineResult:
    """Run the naive baseline on an edge-partitioned graph, measured."""
    delta = partition.max_degree
    num_colors = delta + 1
    core = resolve_transport(transport)
    transcript = core.new_transcript()
    a_colors, b_colors, _ = core.run(
        lambda ch: naive_exchange_proto(ch, partition.alice_graph, num_colors),
        lambda ch: naive_exchange_proto(ch, partition.bob_graph, num_colors),
        transcript,
    )
    if a_colors != b_colors:
        raise AssertionError("naive parties disagree on the coloring")
    return BaselineResult("naive_exchange", a_colors, transcript, num_colors)
