"""Parallel repetition of the ZEC game (Proposition 6.3, Raz/Holenstein).

The hard instance behind Theorem 4 is ``n`` independent ZEC games glued
into one ``9n``-vertex graph.  The parallel repetition theorem bounds any
(possibly entangled across instances) zero-communication strategy's success
at ``2^{−Ω(n)}``; for *product* strategies the decay is exactly ``vⁿ``
where ``v < 1`` is the single-game value.  This module measures both the
exact product decay and Monte-Carlo play of the product game, and exposes
the proposition's quantitative bound for comparison.
"""

from __future__ import annotations

import math
import random

from ..graphs.generators import zec_instance_graph
from ..graphs.graph import Graph
from .zec import ALL_INPUTS, DeterministicStrategy, exact_win_probability

__all__ = [
    "holenstein_bound",
    "product_game_graph",
    "product_success_exact",
    "simulate_product_game",
]


def product_success_exact(
    alice: DeterministicStrategy,
    bob: DeterministicStrategy,
    copies: int,
) -> float:
    """Exact success probability of a product strategy over ``copies`` games."""
    single = exact_win_probability(alice, bob)
    return single**copies


def holenstein_bound(single_game_value: float, copies: int, num_outputs: int = 36) -> float:
    """Proposition 6.3's bound ``(1 − (1−v)³/6000)^{n / log s}``.

    ``s`` is the number of possible output pairs of one game; a ZEC player
    outputs one of 6 locally proper color pairs, so ``s = 36``.
    """
    if not 0 <= single_game_value <= 1:
        raise ValueError("game value must be a probability")
    v = single_game_value
    base = 1.0 - (1.0 - v) ** 3 / 6000.0
    return base ** (copies / math.log2(num_outputs))


def simulate_product_game(
    alice: DeterministicStrategy,
    bob: DeterministicStrategy,
    copies: int,
    trials: int,
    rng: random.Random,
) -> float:
    """Monte-Carlo win rate of the product strategy on ``copies`` games."""
    inputs = list(ALL_INPUTS)
    wins = 0
    for _ in range(trials):
        ok = True
        for _ in range(copies):
            sa = rng.choice(inputs)
            sb = rng.choice(inputs)
            ca = dict(zip(sa, alice[sa]))
            cb = dict(zip(sb, bob[sb]))
            if any(cb.get(s) == c for s, c in ca.items()):
                ok = False
                break
        wins += ok
    return wins / trials


def product_game_graph(
    instance_inputs: list[tuple[tuple[int, int], tuple[int, int]]],
) -> Graph:
    """The ``9n``-vertex union graph of ``n`` ZEC instances (Theorem 4).

    ``instance_inputs[t]`` is the ``(alice_spokes, bob_spokes)`` pair of
    instance ``t``; instance ``t`` occupies vertices ``9t .. 9t+8``.
    """
    edges = [
        (9 * t + u, 9 * t + v)
        for t, (alice_spokes, bob_spokes) in enumerate(instance_inputs)
        for u, v in zec_instance_graph(alice_spokes, bob_spokes).edges()
    ]
    return Graph(9 * len(instance_inputs), edges)
