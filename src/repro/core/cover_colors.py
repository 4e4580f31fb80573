"""The cover-colors protocol of Lemma 5.4.

One party (say Bob) must let Alice learn, for every vertex ``v`` with
``deg_B(v) ≤ Δ/2``, one color of Bob's palette still available at ``v``
under Bob's local coloring — using ``O(n)`` bits and a single message.

Bob's construction: since each low-degree vertex has ``≥ (Δ−1)/3`` of his
``Δ−1`` palette colors available, a double-counting argument yields a color
available for ``≥ 1/3`` of any set of low-degree vertices.  Bob greedily
picks such colors; the ``i``-th pick comes with a bitmap over the still
uncovered vertices, so total bitmap length is a geometric series ``≤ 3n``.

The builder works from the colors already *used* at each vertex rather
than the available ones.  A low vertex has degree ``≤ Δ/2``, so it uses
at most ``Δ/2`` colors; counting the uncovered vertices that use each
color costs ``O(Σ |used[v]|) = O(|alive| · Δ)`` per pick, and since every
pick covers a third of the vertices left the whole greedy is
``O(n · Δ)`` — linear in ``n``, with no per-color ``n``-bit masks.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection, Mapping, Sequence
from dataclasses import dataclass
from itertools import chain

from ..comm.bits import gamma_cost, uint_cost

__all__ = ["CoverMessage", "build_cover_message", "decode_cover_message"]


@dataclass(frozen=True)
class CoverMessage:
    """The one-shot message of Lemma 5.4.

    ``colors[i]`` is the ``i``-th cover color; ``bitmaps[i]`` flags, over
    the vertices still uncovered before round ``i`` (in sorted order),
    which of them this color covers.
    """

    colors: tuple[int, ...]
    bitmaps: tuple[tuple[bool, ...], ...]
    nbits: int


def build_cover_message(
    low_vertices: Sequence[int],
    used: Mapping[int, Collection[int]] | Sequence[Collection[int]],
    palette: Sequence[int],
) -> CoverMessage:
    """Greedy third-covering of the low-degree vertices by palette colors.

    ``used[v]`` holds the colors already on ``v``'s edges; a palette color
    is available at ``v`` when it is not in ``used[v]`` (colors outside
    the palette are ignored).  Each pick takes the first palette color
    available at the most uncovered vertices.  Every low vertex must have
    an available palette color (guaranteed by the degree bound, Lemma
    5.4); otherwise ``ValueError`` is raised — a protocol-logic bug
    upstream.
    """
    base = sorted(low_vertices)
    palette_set = set(palette)
    alive = [set(used[v]) for v in base]
    for v, blocked in zip(base, alive):
        if palette_set <= blocked:
            raise ValueError(f"vertex {v} has no available palette color")
    colors: list[int] = []
    bitmaps: list[tuple[bool, ...]] = []
    nbits = 0
    while alive:
        # The first palette color with the fewest uncovered vertices using
        # it covers the most: ``count[c] = |alive| − misses[c]``.
        misses = Counter(chain.from_iterable(alive))
        best_color = min(palette, key=lambda c: misses[c])
        flags = tuple(best_color not in blocked for blocked in alive)
        colors.append(best_color)
        bitmaps.append(flags)
        nbits += uint_cost(max(palette)) + len(flags)
        alive = [blocked for blocked in alive if best_color in blocked]
    nbits += gamma_cost(len(colors) + 1)  # announce the number of rounds
    return CoverMessage(tuple(colors), tuple(bitmaps), nbits)


def decode_cover_message(
    low_vertices: Sequence[int],
    message: CoverMessage,
) -> dict[int, int]:
    """Recover the vertex → color assignment from a cover message.

    ``low_vertices`` must be the same set the sender used (it is common
    knowledge after the degree bitmaps are exchanged in Algorithm 2).
    """
    uncovered = sorted(low_vertices)
    assignment: dict[int, int] = {}
    for color, flags in zip(message.colors, message.bitmaps):
        if len(flags) != len(uncovered):
            raise ValueError("cover message bitmap length mismatch")
        remaining = []
        for v, hit in zip(uncovered, flags):
            if hit:
                assignment[v] = color
            else:
                remaining.append(v)
        uncovered = remaining
    if uncovered:
        raise ValueError(f"cover message leaves vertices uncovered: {uncovered[:3]}")
    return assignment
