"""TDMA link scheduling across two datacenter fabrics via edge coloring.

A classical use of edge coloring: links incident to the same switch cannot
be active in the same time slot, so a proper edge coloring with ``k``
colors is a ``k``-slot transmission schedule.  Here two fabric controllers
each own the links they provisioned; the combined topology must be
scheduled with minimal controller-to-controller chatter.

Theorem 2 gives a ``(2Δ−1)``-slot schedule with ``O(n)`` bits in two
coordination rounds; Theorem 3 shows one extra slot (``2Δ``) removes the
need for any coordination at all — a deployment-relevant trade-off this
example quantifies.

Run:  python examples/link_scheduling.py
"""

from __future__ import annotations

import random
from collections import Counter

from repro.core import run_edge_coloring, run_zero_comm_edge_coloring
from repro.graphs import (
    EdgePartition,
    assert_proper_edge_coloring,
    random_bipartite_regular,
)


def build_fabric(rng: random.Random) -> EdgePartition:
    """Two overlaid bipartite fabrics (leaf↔spine), one per controller.

    Controller A provisioned an 8-regular fabric, controller B a 4-regular
    expansion overlay; the union is what must be scheduled.
    """
    leaves = 64
    base = random_bipartite_regular(leaves, 8, rng)
    overlay = random_bipartite_regular(leaves, 4, rng)
    return EdgePartition(base.union(overlay), base.edges())


def schedule_summary(colors: dict, num_slots: int) -> str:
    load = Counter(colors.values())
    busiest = max(load.values())
    return (
        f"{len(load)} of {num_slots} slots used, "
        f"busiest slot carries {busiest} links"
    )


def main() -> None:
    rng = random.Random(99)
    partition = build_fabric(rng)
    graph = partition.graph
    delta = graph.max_degree()
    print(f"fabric: {graph.n} switches, {graph.m} links, max degree Δ={delta}")
    print(f"controller A owns {len(partition.alice_edges)} links, "
          f"controller B owns {len(partition.bob_edges)}")

    tight = run_edge_coloring(partition)
    assert_proper_edge_coloring(graph, tight.colors, 2 * delta - 1)
    print("\n(2Δ−1)-slot schedule  [Theorem 2]")
    print(f"  slots   : {schedule_summary(tight.colors, 2 * delta - 1)}")
    print(f"  control : {tight.total_bits} bits in {tight.rounds} rounds")

    free = run_zero_comm_edge_coloring(partition)
    assert_proper_edge_coloring(graph, free.colors, 2 * delta)
    print("\n(2Δ)-slot schedule  [Theorem 3]")
    print(f"  slots   : {schedule_summary(free.colors, 2 * delta)}")
    print(f"  control : {free.total_bits} bits in {free.rounds} rounds "
          f"(fully autonomous controllers)")

    print(
        "\ntrade-off: paying one extra time slot "
        f"({2 * delta} instead of {2 * delta - 1}) eliminates all "
        f"{tight.total_bits} bits of control-plane coordination — "
        "Theorem 4 proves those bits are unavoidable at 2Δ−1 slots."
    )


if __name__ == "__main__":
    main()
