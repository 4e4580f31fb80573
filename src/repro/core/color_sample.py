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

:func:`color_sample_proto` is one instance and the reference.
:func:`color_sample_batch_proto` runs a whole fan-out of instances (one
Random-Color-Trial iteration, one D1LC sparsification) as one protocol:
the sum of the instances' bits and the max of their rounds, with the
saturated path as a numpy lockstep that sends one message per round.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence, Set
from itertools import chain

from ..comm import telemetry as _telemetry
from ..comm.bits import BitWriter, uint_cost
from ..comm.transport import Channel
from ..rand import Permutation, Stream
from ..rand import kernels as _kernels
from ..rand.perm import forward_tables
from .slack import SAMPLING_CONSTANT, randomized_slack_proto

__all__ = ["color_sample_batch_proto", "color_sample_proto"]

_EXHAUSTED = (
    "Algorithm 3 exhausted its guesses; the k-Slack-Int precondition "
    "|X|+|Y| <= m-1 must have been violated"
)


def _check_palette(own_used: Set[int], num_colors: int) -> None:
    """Reject used colors outside ``[1..num_colors]``."""
    for c in own_used:
        if not 1 <= c <= num_colors:
            bad = sorted(x for x in own_used if not 1 <= x <= num_colors)
            raise ValueError(
                f"used colors outside palette [1..{num_colors}]: {bad[:3]}"
            )


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
    _check_palette(own_used, num_colors)

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
        # saturates harder.  The count exchange and the Lemma A.1
        # bisection are inlined into this one generator frame instead of
        # resuming the color-sample → Algorithm-3 → binary-search chain
        # every round; the sends are bit-for-bit those of
        # :func:`randomized_slack_proto`.  Whole fan-outs of this path
        # run as one array lockstep in :func:`color_sample_batch_proto`,
        # which must match it instance for instance.
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
                raise RuntimeError(_EXHAUSTED)
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


def color_sample_batch_proto(
    ch: Channel,
    num_colors: int,
    used_sets: Sequence[Set[int]],
    streams: Sequence[Stream],
    perms: Sequence[Permutation],
):
    """One party's side of ``K`` parallel Color-Sample instances.

    Instance ``i`` is ``color_sample_proto(ch, num_colors, used_sets[i],
    streams[i], perm=perms[i])``, where ``perms[i]`` was
    drawn from ``streams[i]`` (as :func:`repro.rand.permutations` does).
    The fan-out costs the sum of the instances' bits and the max of their
    rounds, as under :meth:`Channel.parallel`.  Returns ``{i: color}`` in
    the order the instances finish (by round, then by ``i``): the dict
    ``ch.parallel`` returns for the keys ``0..K-1``.  That order is kept
    because callers fill sets in it and D1LC's list-coloring solver
    draws from those sets in iteration order.

    When numpy is available and the palette is in the range
    :func:`~repro.rand.permutations` builds tables for in one batch
    (``12 < m <= 96``, so every instance takes the saturated path, as
    ``m <= C = 150``), the fan-out runs in lockstep over
    ``K × m`` arrays: one message of the ``K`` counts, then one message
    per Lemma A.1 bisection round holding the live instances' left-half
    counts in instance order.  Each message declares the sum of the
    instances' widths, so bits, rounds, messages and the per-round log
    are the reference fan-out's.  Otherwise (no numpy, Lehmer or Feistel
    palettes) this is that reference fan-out: ``ch.parallel`` over
    ``color_sample_proto``.

    A used color outside ``[1..m]`` raises ``ValueError`` before any
    round.  If some instance has ``|A| + |B| >= m`` (no free color is
    guaranteed), the lockstep path raises ``RuntimeError`` on both
    parties right after its count round.  The reference repeats that
    count round once per remaining guess of Algorithm 3 before it raises
    the same error, so the lockstep path fails rounds sooner.
    """
    m = num_colors
    if m < 1:
        raise ValueError(f"palette must be non-empty, got {m}")
    k = len(used_sets)
    if len(streams) != k or len(perms) != k:
        raise ValueError(
            f"{k} used sets, {len(streams)} streams and {len(perms)} "
            "permutations: one of each per instance"
        )
    if not k:
        return {}
    # Tables exist only for m <= 96, below SAMPLING_CONSTANT: with them,
    # every instance takes the saturated path the lockstep runs.
    np = _kernels._np
    tables = None if np is None else forward_tables(perms, m)
    if _telemetry.enabled:
        _telemetry.color_sample_fanouts += 1
        _telemetry.color_sample_instances += k
        if tables is not None:
            _telemetry.color_sample_kernel_fanouts += 1
    if tables is None:
        return (
            yield from ch.parallel(
                {
                    i: (color_sample_proto, m, used, stream, None, perm)
                    for i, (used, stream, perm) in enumerate(
                        zip(used_sets, streams, perms)
                    )
                }
            )
        )
    return (yield from _saturated_lockstep(ch, np, m, used_sets, tables))


def _counts_codec(bounds):
    """Strict codec of one lockstep message: count ``j`` lies in ``[0, bounds[j]]``.

    Each count is encoded in its own width, recomputed here from the
    bounds, so a declared total that is off by any bit fails the check.
    """

    def encode(counts):
        writer = BitWriter()
        for count, bound in zip(counts.tolist(), bounds.tolist()):
            writer.write_uint(count, uint_cost(bound))
        return writer.to_bits()

    return encode


def _saturated_lockstep(ch: Channel, np, m: int, used_sets, tables: bytes):
    """The saturated path of ``K`` Color-Samples as one array protocol.

    Per instance this is exactly :func:`color_sample_proto`'s saturated
    branch: count round, then bisection of ``[0, m)`` on the permuted
    positions, returning ``perm[lo] + 1``.  Every table is ``uint8``
    (``m <= 96``: positions, counts and prefix sums all fit).
    """
    k = len(used_sets)
    rows = np.arange(k)
    forward = np.frombuffer(tables, dtype=np.uint8).reshape(k, m)
    sizes = np.fromiter(map(len, used_sets), dtype=np.intp, count=k)
    colors = np.fromiter(
        chain.from_iterable(used_sets), dtype=np.intp, count=int(sizes.sum())
    )
    if colors.size and (colors.min() < 1 or colors.max() > m):
        for used in used_sets:
            _check_palette(used, m)
    # Each instance's used colors as a row mask over its permuted positions.
    inverse = np.empty((k, m), dtype=np.uint8)
    inverse[rows[:, None], forward] = np.arange(m, dtype=np.uint8)
    owner = np.repeat(rows, sizes)
    own = np.zeros((k, m), dtype=np.uint8)
    own[owner, inverse[owner, colors - 1]] = 1
    # prefix[i, p]: instance i's own positions below p.
    prefix = np.zeros((k, m + 1), dtype=np.uint8)
    np.cumsum(own, axis=1, dtype=np.uint8, out=prefix[:, 1:])
    flat = prefix.reshape(-1)
    post = ch.post

    own_count = prefix[:, m].astype(np.intp)
    peer_count = yield post(
        k * uint_cost(m), own_count, _counts_codec(np.full(k, m))
    )
    if (own_count + peer_count >= m).any():
        raise RuntimeError(_EXHAUSTED)

    # Lemma A.1 in lockstep: the arrays hold the live instances, in
    # instance order; an instance leaves once its interval is one position.
    bit_length = np.array([x.bit_length() for x in range(m + 1)], dtype=np.intp)
    live = rows
    base = rows * (m + 1)
    lo = np.zeros(k, dtype=np.intp)
    hi = np.full(k, m, dtype=np.intp)
    final = np.empty(k, dtype=np.intp)
    finished = []
    while live.size:
        span = (hi - lo) >> 1
        mid = lo + span
        own_left = flat[base + mid].astype(np.intp) - flat[base + lo]
        peer_left = yield post(
            int(bit_length[span].sum()), own_left, _counts_codec(span)
        )
        left = span - own_left - peer_left >= 1
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        done = hi - lo <= 1
        if done.any():
            leaving = live[done]
            finished.append(leaving)
            final[leaving] = lo[done]
            keep = ~done
            live, base, lo, hi = live[keep], base[keep], lo[keep], hi[keep]
    order = np.concatenate(finished)
    picks = forward[order, final[order]].astype(np.intp) + 1
    return dict(zip(order.tolist(), picks.tolist()))
