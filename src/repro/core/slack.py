"""Protocols for ``k``-Slack-Int (Problem 6, Appendix A).

Given sets ``X`` (Alice) and ``Y`` (Bob) over a common ground list with
``|X| + |Y| ≤ m − k`` for some ``k ≥ 1``, find an element of the ground set
outside ``X ∪ Y``:

* :func:`slack_find_proto` — the deterministic binary-search protocol of
  Lemma A.1: ``O(log² m)`` bits, ``O(log m)`` rounds.
* :func:`randomized_slack_proto` — Algorithm 3 (Lemma A.2): exponentially
  decreasing guesses ``k̃`` with public sub-sampling; expected
  ``O(log²((m+1)/k))`` bits and ``O(log((m+1)/k))`` rounds.

Both are written as *single* channel protocols usable by either party:
each round both parties send the count of their own set inside the probed
interval, so Alice's and Bob's programs are literally identical.  The
element found is common knowledge by construction.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence, Set

from ..comm.bits import uint_cost
from ..comm.transport import Channel
from ..rand import Stream

__all__ = [
    "randomized_slack_proto",
    "slack_find_proto",
]

#: Constant from Algorithm 3's sampling probability ``p = min(1, C·m/k̃²)``.
SAMPLING_CONSTANT = 150


def slack_find_proto(
    ch: Channel,
    ground: Sequence[int],
    own: Set[int],
    own_count: int | None = None,
    peer_count: int | None = None,
):
    """Deterministic binary search for an element outside both sets (Lemma A.1).

    ``ground`` is the publicly known candidate list (identical on both
    sides, same order).  If the parties already exchanged their counts over
    the full ground set (as Algorithm 3 does), pass them to skip the
    opening round.  The invariant ``|I| − a − b ≥ 1`` guarantees a "free"
    element in the current interval ``I``; we recurse into the half whose
    lower bound stays positive.
    """
    lo, hi = 0, len(ground)
    # The per-round interval counts are bisections over this party's
    # sorted positions inside the ground list — O(|own| + rounds·log)
    # total instead of rescanning O(|I|) elements every round.  When the
    # ground set is the canonical ``range(m)`` (Algorithm 3's saturated
    # sample), positions are the elements themselves.
    if isinstance(ground, range) and ground.start == 0 and ground.step == 1:
        own_pos = sorted(e for e in own if 0 <= e < hi)
    else:
        own_pos = sorted(i for i, e in enumerate(ground) if e in own)
    # The bisection loop is the hottest send site in the repo, so it speaks
    # the raw post idiom: no delegate generator per probe.
    post = ch.post
    if own_count is None or peer_count is None:
        own_count = len(own_pos)
        peer_count = yield post(uint_cost(len(ground)), own_count)
    slack = (hi - lo) - own_count - peer_count
    if slack < 1:
        raise ValueError("no guaranteed free element: |I| - a - b < 1")

    while hi - lo > 1:
        mid = (lo + hi) // 2
        own_left = bisect_left(own_pos, mid) - bisect_left(own_pos, lo)
        # (mid - lo).bit_length() == uint_cost(mid - lo) for positive widths;
        # inlined because this is the hottest declared-cost site in the repo.
        peer_left = yield post((mid - lo).bit_length(), own_left)
        left_slack = (mid - lo) - own_left - peer_left
        if left_slack >= 1:
            hi = mid
            slack = left_slack
        else:
            lo = mid
            slack = slack - left_slack
    return ground[lo]


def guess_schedule(m: int) -> list[int]:
    """Algorithm 3's exponentially decreasing guesses ``m, m/2, …, 1``."""
    guesses = []
    k_tilde = m
    while k_tilde >= 1:
        guesses.append(k_tilde)
        if k_tilde == 1:
            break
        k_tilde //= 2
    return guesses


def sampling_probability(m: int, k_tilde: int, constant: int = SAMPLING_CONSTANT) -> float:
    """Algorithm 3's inclusion probability ``p = min(1, C·m/k̃²)``."""
    return min(1.0, constant * m / (k_tilde * k_tilde))


def randomized_slack_proto(
    ch: Channel,
    m: int,
    own: Set[int],
    pub: Stream,
    constant: int = SAMPLING_CONSTANT,
):
    """Algorithm 3: randomized ``k``-Slack-Int over the ground set ``range(m)``.

    Requires the problem precondition ``|X| + |Y| ≤ m − 1`` (there is a free
    element); in the coloring application this holds because the two
    neighborhoods are disjoint.  Terminates at the latest once the sampling
    probability saturates at 1 (then ``S = [m]`` and the condition
    ``|S∩X| + |S∩Y| < |S|`` is exactly the precondition).

    ``constant`` is Algorithm 3's sampling constant ``C`` (paper: 150);
    the E14 ablation sweeps it to show the cost/failure trade-off.
    """
    if m < 1:
        raise ValueError(f"ground size must be positive, got {m}")
    if constant < 1:
        raise ValueError(f"sampling constant must be >= 1, got {constant}")
    own_in_range = -1  # computed once, on the first saturated guess
    post = ch.post
    # Walk guess_schedule(m) lazily: the common case (m <= C, immediately
    # saturated) resolves on the first guess, so materializing the whole
    # exponential schedule per invocation is pure allocation churn.
    k_tilde = m
    while True:
        # At saturation (p >= 1 — immediately, when m <= C) streams
        # answer with the plain ground ``range`` in O(1): no masks, no
        # draws — both parties skip identically, keeping lockstep — and
        # counting our own set needs no scan either.
        sample = pub.sample_indices(m, sampling_probability(m, k_tilde, constant))
        if sample.__class__ is range:
            if own_in_range < 0:
                own_in_range = sum(1 for i in own if 0 <= i < m)
            own_count = own_in_range
        else:
            own_count = sum(1 for i in sample if i in own)
        peer_count = yield post(uint_cost(len(sample)), own_count)
        if own_count + peer_count < len(sample):
            result = yield from slack_find_proto(
                ch, sample, own, own_count=own_count, peer_count=peer_count
            )
            return result
        if k_tilde == 1:
            break
        k_tilde //= 2
    raise RuntimeError(
        "Algorithm 3 exhausted its guesses; the k-Slack-Int precondition "
        "|X|+|Y| <= m-1 must have been violated"
    )
