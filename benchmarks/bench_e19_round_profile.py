"""E19 — round profiles and direction split of the main protocols.

Where do the bits actually flow?  The transcript's per-round log exposes
each protocol's texture:

* Theorem 1 front-loads heavy parallel rounds (every active vertex's
  Color-Sample shares the round) and tapers geometrically with the active
  set — the round profile is the E7 decay curve seen from the wire;
* Theorem 2 is two dense symmetric bursts;
* FM25 is a long whisper: thousands of rounds of a few bits each.

Direction symmetry is also a claim worth pinning: every protocol here is
role-symmetric except the gather steps (D1LC's Bob→Alice shipments).
"""

from __future__ import annotations

from repro.analysis import print_table
from repro.baselines import run_flin_mittal
from repro.core import run_edge_coloring, run_vertex_coloring

from .conftest import regular_workload

N = 512
DEGREE = 8


def profile(round_log, buckets=6):
    """Compress a round log into per-bucket bit totals."""
    if not round_log:
        return [0] * buckets
    size = max(1, (len(round_log) + buckets - 1) // buckets)
    totals = []
    for start in range(0, len(round_log), size):
        chunk = round_log[start : start + size]
        totals.append(sum(a + b for a, b in chunk))
    while len(totals) < buckets:
        totals.append(0)
    return totals[:buckets]


def test_e19_round_profiles(benchmark):
    part = regular_workload(N, DEGREE, seed=19)

    # The strict transport keeps the per-round log this experiment reads.
    thm1 = run_vertex_coloring(part, seed=19, transport="strict")
    thm2 = run_edge_coloring(part, transport="strict")
    fm = run_flin_mittal(part, seed=19, transport="strict")

    rows = []
    for name, res in (("theorem1", thm1), ("theorem2", thm2), ("fm25", fm)):
        t = res.transcript
        buckets = profile(t.round_log)
        rows.append(
            [
                name,
                t.rounds,
                round(t.total_bits / max(t.rounds, 1), 1),
                t.bits_alice_to_bob,
                t.bits_bob_to_alice,
            ]
            + buckets
        )
    print_table(
        ["protocol", "rounds", "bits/round", "A→B", "B→A"]
        + [f"sextile {i + 1}" for i in range(6)],
        rows,
        title=f"E19  round profiles and direction split (n={N}, Δ={DEGREE})",
    )

    t1 = thm1.transcript
    # Theorem 1's profile decays: the first sextile of rounds carries more
    # bits than the last (active set shrinks geometrically).
    p1 = profile(t1.round_log)
    assert p1[0] > p1[-1]
    # Direction split stays balanced for the symmetric protocols (within
    # 2x — count exchanges are symmetric, confirmations/gathers are not).
    assert t1.bits_alice_to_bob < 2 * t1.bits_bob_to_alice + 64
    assert t1.bits_bob_to_alice < 2 * t1.bits_alice_to_bob + 64
    # FM25's per-round payload is tiny compared to Theorem 1's parallel
    # rounds.
    fm_per_round = fm.total_bits / fm.rounds
    thm1_per_round = thm1.total_bits / thm1.rounds
    assert thm1_per_round > 10 * fm_per_round

    benchmark(lambda: run_vertex_coloring(regular_workload(256, 8, 20), seed=20))
