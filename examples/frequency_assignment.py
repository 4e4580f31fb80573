"""Frequency assignment across two cellular operators.

The intro's motivating application: base stations must receive frequencies
such that interfering stations never share one.  Interference measurements
are split between two operators (each knows only the interference pairs its
own probes observed), and backhaul between them is expensive — exactly the
two-party edge-partition model.

A (Δ+1)-vertex coloring of the interference graph is a valid frequency
plan with the fewest channels greedy analysis guarantees.  This example
builds a synthetic city grid of base stations with distance-based
interference, splits the measurements, and compares Theorem 1 against the
naive "ship all measurements" approach.

Run:  python examples/frequency_assignment.py
"""

from __future__ import annotations

import math
import random

from repro.baselines import run_naive_exchange
from repro.core import run_vertex_coloring
from repro.graphs import EdgePartition, Graph, assert_proper_vertex_coloring


def build_interference_graph(
    stations: int,
    rng: random.Random,
    interference_radius: float = 0.14,
    max_links: int = 12,
) -> tuple[Graph, list[tuple[float, float]]]:
    """Random station placements; stations interfere within a radius.

    The degree cap models power control: a station coordinates with at
    most ``max_links`` strongest interferers.
    """
    positions = [(rng.random(), rng.random()) for _ in range(stations)]
    candidates = []
    for i in range(stations):
        for j in range(i + 1, stations):
            dx = positions[i][0] - positions[j][0]
            dy = positions[i][1] - positions[j][1]
            dist = math.hypot(dx, dy)
            if dist <= interference_radius:
                candidates.append((dist, i, j))
    candidates.sort()
    degree = [0] * stations
    edges = []
    for _dist, i, j in candidates:
        if degree[i] < max_links and degree[j] < max_links:
            degree[i] += 1
            degree[j] += 1
            edges.append((i, j))
    return Graph(stations, edges), positions


def split_measurements(graph: Graph, rng: random.Random) -> EdgePartition:
    """Each interference pair was measured by exactly one operator's probes."""
    alice_edges = [e for e in graph.edges() if rng.random() < 0.5]
    return EdgePartition(graph, alice_edges)


def main() -> None:
    rng = random.Random(7)
    stations = 600
    graph, _positions = build_interference_graph(stations, rng)
    delta = graph.max_degree()
    partition = split_measurements(graph, rng)

    print(f"interference graph: {stations} stations, {graph.m} interference "
          f"pairs, max degree Δ={delta}")
    print(f"operator A observed {len(partition.alice_edges)} pairs, "
          f"operator B observed {len(partition.bob_edges)}")

    plan = run_vertex_coloring(partition, seed=2024)
    assert_proper_vertex_coloring(graph, plan.colors, delta + 1)
    channels = len(set(plan.colors.values()))
    print("\nfrequency plan via Theorem 1:")
    print(f"  channels used       : {channels} (≤ Δ+1 = {delta + 1})")
    print(f"  backhaul traffic    : {plan.total_bits} bits "
          f"({plan.total_bits / stations:.1f} per station)")
    print(f"  coordination rounds : {plan.rounds}")

    naive = run_naive_exchange(partition)
    print("\nnaive plan (ship all measurements):")
    print(f"  backhaul traffic    : {naive.total_bits} bits")
    print(f"  savings from Theorem 1: "
          f"{naive.total_bits / max(plan.total_bits, 1):.1f}x less traffic")

    # Channel utilization summary.
    usage: dict[int, int] = {}
    for color in plan.colors.values():
        usage[color] = usage.get(color, 0) + 1
    busiest = max(usage.values())
    print(f"\nchannel load: max {busiest} stations on one channel, "
          f"mean {stations / channels:.1f}")


if __name__ == "__main__":
    main()
