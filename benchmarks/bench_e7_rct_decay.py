"""E7 — Random-Color-Trial progress (Lemmas 4.1–4.4).

Instruments Algorithm 1 to record the active-set size at every iteration.
Claims: the count decays geometrically with per-iteration survival ratio
at most 23/24 (Lemma 4.3 — empirically far better), and the paper's
iteration budget leaves at most ``O(n/log⁴ n)`` vertices for the D1LC
leftover phase (Lemma 4.1(i)).
"""

from __future__ import annotations

import math

from repro.analysis import geometric_decay_rate, print_table
from repro.comm import TRANSPORTS
from repro.rand import Stream
from repro.core import random_color_trial_proto

from .conftest import regular_workload

N = 1024
DEGREE = 8


def run_instrumented(seed: int):
    part = regular_workload(N, DEGREE, seed=seed)
    history: list[int] = []
    (colors, active), _, t = TRANSPORTS["count"].run(
        (random_color_trial_proto, part.alice_graph, DEGREE + 1, Stream.from_seed(seed),
         None, history),
        (random_color_trial_proto, part.bob_graph, DEGREE + 1, Stream.from_seed(seed),
         None),
    )
    return history, len(active), t


def test_e7_active_set_decay(benchmark):
    history, leftover, transcript = run_instrumented(seed=3)
    rows = [
        [i, count, round(count / N, 4)]
        for i, count in enumerate(history[:14], start=1)
    ]
    decay = geometric_decay_rate(history)
    print_table(
        ["iteration", "active vertices", "fraction"],
        rows,
        title=(
            f"E7  Random-Color-Trial decay (n={N}, Δ={DEGREE}; fitted "
            f"survival ratio {decay:.3f}, Lemma 4.3 bound 23/24 ≈ 0.958; "
            f"leftover {leftover}, bound O(n/log⁴n) ≈ "
            f"{N / math.log2(N) ** 4:.1f})"
        ),
    )

    # Lemma 4.3: empirical survival ratio at most the 23/24 bound.
    assert decay <= 23 / 24 + 0.01
    # Lemma 4.1(i): the paper's budget empties (or nearly empties) the
    # active set — allow the O(n/log^4 n) slack with a generous constant.
    assert leftover <= max(8.0, 40 * N / math.log2(N) ** 4)
    # Monotone decrease.
    assert all(a >= b for a, b in zip(history, history[1:]))

    benchmark(lambda: run_instrumented(seed=11))
