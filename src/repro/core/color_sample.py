"""``Color-Sample`` — sample an available color uniformly (Lemma 3.1).

Setting: a partial proper vertex coloring is common knowledge; for an
uncolored vertex ``v``, Alice knows the set ``A`` of colors used in her
neighborhood ``N_A(v)`` and Bob knows ``B`` for ``N_B(v)``.  An *available*
color is any element of ``[Δ+1] \\ (A ∪ B)``.

The protocol is Algorithm 3 run on a publicly permuted palette: both parties
apply a shared random permutation to ``[Δ+1]`` and execute the randomized
``k``-Slack-Int search on the permuted positions.  Since the search does not
favor any position pattern and the permutation is uniform, the returned
color is uniform over the available colors (Lemma 3.1), and it is common
knowledge (i).  Expected cost is ``O(log²((Δ+1)/k))`` bits over
``O(log((Δ+1)/k))`` rounds (ii–iii), worst case ``O(log² Δ)`` / ``O(log Δ)``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Set

from ..comm.bits import uint_cost
from ..comm.transport import Channel
from ..rand import Permutation, Stream
from .slack import SAMPLING_CONSTANT, randomized_slack_proto

__all__ = ["color_sample_proto"]


def color_sample_proto(
    ch: Channel,
    num_colors: int,
    own_used: Set[int],
    pub: Stream,
    sampling_constant: int | None = None,
    perm: Permutation | None = None,
):
    """One party's side of Color-Sample.

    ``num_colors`` is the palette size ``m = Δ+1``; ``own_used`` is this
    party's set of colors (1-based, subset of ``[1..m]``) occupied in its
    side of the neighborhood.  Returns the sampled available color
    (1-based).  Both parties must pass the *same* ``pub`` stream state.
    ``sampling_constant`` overrides Algorithm 3's ``C`` (default 150) for
    ablation studies.  ``perm`` is the public palette permutation when
    the caller already drew it from ``pub`` (``pub.permutation(m)``, as
    :func:`repro.rand.permutations` does for a whole fan-out); without
    it the protocol draws it here.
    """
    if num_colors < 1:
        raise ValueError(f"palette must be non-empty, got {num_colors}")
    for c in own_used:
        if not 1 <= c <= num_colors:
            bad = sorted(x for x in own_used if not 1 <= x <= num_colors)
            raise ValueError(
                f"used colors outside palette [1..{num_colors}]: {bad[:3]}"
            )

    # Public uniform relabeling of the palette: position -> color.  Only
    # the |own_used| inverse lookups and one final forward lookup are
    # requested; above repro.rand's small-m threshold those are O(1)
    # Feistel queries, below it the whole table is materialized (cheaper
    # than cycle-walking at small palette sizes).
    if perm is None:
        perm = pub.permutation(num_colors)
    elif perm.m != num_colors:
        raise ValueError(f"permutation of {perm.m} for a palette of {num_colors}")
    own_positions = set(perm.index_of_batch([c - 1 for c in own_used]))

    constant = SAMPLING_CONSTANT if sampling_constant is None else sampling_constant
    if constant >= num_colors:
        # Saturated fast path: Algorithm 3's very first guess k̃ = m has
        # p = min(1, C·m/m²) = 1, so the sample is the whole ground range
        # (drawn without touching the tape) and every later guess only
        # saturates harder.  The entire run — the count exchange plus the
        # Lemma A.1 bisection — is inlined into this single generator
        # frame: the per-round resume otherwise traverses the
        # color-sample → Algorithm-3 → binary-search yield-from chain,
        # which is the dominant simulation cost of the coloring protocols
        # (every (Δ+1)-coloring instance has m = Δ+1 ≤ C).  The sends are
        # bit-for-bit those of :func:`randomized_slack_proto`.
        m = num_colors
        post = ch.post
        own_count = len(own_positions)  # positions always lie in [0, m)
        width = uint_cost(m)
        k_tilde = m
        while True:
            peer_count = yield post(width, own_count)
            if own_count + peer_count < m:
                break
            if k_tilde == 1:
                raise RuntimeError(
                    "Algorithm 3 exhausted its guesses; the k-Slack-Int "
                    "precondition |X|+|Y| <= m-1 must have been violated"
                )
            k_tilde //= 2
        own_pos = sorted(own_positions)
        lo, hi = 0, m
        while hi - lo > 1:
            mid = (lo + hi) // 2
            own_left = bisect_left(own_pos, mid) - bisect_left(own_pos, lo)
            peer_left = yield post((mid - lo).bit_length(), own_left)
            if (mid - lo) - own_left - peer_left >= 1:
                hi = mid
            else:
                lo = mid
        return perm[lo] + 1

    position = yield from randomized_slack_proto(
        ch, num_colors, own_positions, pub, constant=constant
    )
    return perm[position] + 1
