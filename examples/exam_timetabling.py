"""Exam timetabling with per-exam slot restrictions via two-party D1LC.

(degree+1)-list coloring generalizes (Δ+1)-coloring: every exam (vertex)
has its own list of permitted time slots, and conflicting exams (sharing
students) need distinct slots.  Two campus registrars each know the
conflicts among the enrollments they manage and each imposes its own slot
restrictions — the two-party D1LC setting of Section 3.3.

The instance is constructed to satisfy the protocol's preconditions the
same way Theorem 1's leftover instances do: each exam's merged list
exceeds its conflict degree, and the two restriction lists jointly leave
slack in the slot universe.

Run:  python examples/exam_timetabling.py
"""

from __future__ import annotations

import random

from repro.comm import TRANSPORTS, Transcript
from repro.rand import Stream
from repro.core import d1lc_proto
from repro.graphs import gnp_with_max_degree, is_proper_list_coloring, partition_random


def build_instance(rng: random.Random):
    """Exams, conflicts, and per-registrar slot restrictions."""
    exams = 180
    max_conflicts = 10
    conflicts = gnp_with_max_degree(exams, 0.08, max_conflicts, rng)
    delta = conflicts.max_degree()
    slots = delta + 1
    universe = set(range(1, slots + 1))

    split = partition_random(conflicts, rng)
    lists_a: dict[int, set[int]] = {}
    lists_b: dict[int, set[int]] = {}
    for exam in conflicts.vertices():
        # Each registrar may strike at most (Δ - deg) slots in total for
        # this exam — the slack Theorem 1's leftover instances enjoy.
        budget = rng.randint(0, delta - conflicts.degree(exam))
        struck = rng.sample(sorted(universe), budget)
        cut = rng.randint(0, budget)
        lists_a[exam] = universe - set(struck[:cut])
        lists_b[exam] = universe - set(struck[cut:])
    return conflicts, split, lists_a, lists_b, slots


def main() -> None:
    rng = random.Random(11)
    conflicts, split, lists_a, lists_b, slots = build_instance(rng)
    exams = conflicts.n
    print(f"{exams} exams, {conflicts.m} conflicts, "
          f"max conflict degree {conflicts.max_degree()}, {slots} slots")
    restricted = sum(1 for v in conflicts.vertices()
                     if len(lists_a[v] & lists_b[v]) < slots)
    print(f"{restricted} exams carry slot restrictions")

    transcript = Transcript()
    active = list(conflicts.vertices())
    pub_a, pub_b = Stream.from_seed(5), Stream.from_seed(5)
    timetable_a, timetable_b, _ = TRANSPORTS["count"].run(
        (d1lc_proto, "alice", split.alice_graph, lists_a, active, slots, pub_a,
         Stream.from_seed(5).derive_random("a")),
        (d1lc_proto, "bob", split.bob_graph, lists_b, active, slots, pub_b,
         Stream.from_seed(5).derive_random("b")),
        transcript,
    )
    assert timetable_a == timetable_b
    merged_lists = {v: lists_a[v] & lists_b[v] for v in conflicts.vertices()}
    assert is_proper_list_coloring(conflicts, timetable_a, merged_lists)

    print("\ntimetable computed jointly by both registrars:")
    print(f"  slots used    : {len(set(timetable_a.values()))} of {slots}")
    print(f"  communication : {transcript.total_bits} bits "
          f"({transcript.total_bits / exams:.1f} per exam)")
    print(f"  rounds        : {transcript.rounds}")
    print("  every exam sits in a slot both registrars permit, and no two")
    print("  conflicting exams share a slot.")


if __name__ == "__main__":
    main()
