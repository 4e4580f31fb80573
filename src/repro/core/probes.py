"""Whole-neighborhood batch probes for the protocol hot loops.

The per-vertex inner loops of Random-Color-Trial and D1LC spend their
time asking set-membership questions vertex by vertex.  These helpers
restate those questions as batch sweeps:

* :func:`used_colors` and :func:`confirmation_bits` — the two questions
  a Random-Color-Trial iteration asks of the awake vertices' rows, read
  off one :meth:`~repro.graphs.Graph.gather_rows` gather (CSR
  ``offsets`` + neighbor ``ids``): the colors already on each row (the
  Color-Sample fan-out's input, in its flat form) and whether any awake
  neighbor picked the row's own color (Algorithm 1's confirmation).
  With numpy each is a few whole-array passes; the pure paths scan the
  rows and return the same values.
* :func:`surviving_edges` — D1LC step 2's disjointness filter over int
  color bitmasks: each sampled list folds to one int, and an edge
  survives iff the endpoint masks intersect (``&`` + truthiness), with
  no per-edge set allocation.

All are pure local computation (no draws, no communication) and produce
exactly the values of the set definitions they restate, so transcripts
and colorings are unchanged — pinned by the equivalence tests.  The
batched *randomness* feeding these loops (participation coins, sampled
lists) comes from the :mod:`repro.rand.kernels` dispatch underneath
``Stream.coins`` and friends.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Mapping, Sequence

from ..graphs.graph import Edge
from ..rand import kernels as _kernels

__all__ = ["confirmation_bits", "surviving_edges", "used_colors"]


def used_colors(offsets: Sequence[int], ids: Sequence[int], coloring: Sequence[int]):
    """The colors ``coloring`` puts on each gathered row: ``(offsets, used)``.

    ``coloring`` holds one color per vertex, 0 for uncolored (a numpy
    int64 vector when numpy is on, else a list).  Row ``i`` of the result
    holds the nonzero ``coloring[u]`` of row ``i``'s ids, in row order,
    repeats kept: the flat form
    :func:`~repro.core.color_sample.color_sample_batch_proto` takes.  The
    numpy path returns int64 vectors, the pure path ``array('q')``
    buffers with the same values.
    """
    np = _kernels._np
    if np is not None:
        colors = coloring[np.asarray(ids, dtype=np.int64)]
        colored = colors != 0
        kept = np.zeros(colors.size + 1, dtype=np.int64)
        np.cumsum(colored, out=kept[1:])
        return kept[np.asarray(offsets, dtype=np.int64)], colors[colored]
    out = array("q", [0])
    used = array("q")
    for start, end in zip(offsets, offsets[1:]):
        used.extend(filter(None, map(coloring.__getitem__, ids[start:end])))
        out.append(len(used))
    return out, used


def confirmation_bits(
    offsets: Sequence[int],
    ids: Sequence[int],
    awake: Sequence[int],
    picks: Sequence[int],
) -> tuple[bool, ...]:
    """One confirmation bit per awake vertex: no own-side conflict.

    ``awake`` is increasing, ``picks[i]`` is ``awake[i]``'s trial color
    and ``ids[offsets[i] : offsets[i + 1]]`` its own-side neighbors.  Bit
    ``i`` is ``all(picks[j] != picks[i] for awake[j] in N_own(awake[i]))``:
    a sleeping neighbor never conflicts.  With numpy every row entry is
    matched to its awake slot by one ``searchsorted``, the clashes are
    compared against each row's own pick and counted per row by one
    ``bincount``.  The pure path scans each row through a dict of the
    picks and stops at the first clash.
    """
    k = len(awake)
    np = _kernels._np
    if np is not None and k:
        vertices = np.asarray(awake, dtype=np.int64)
        colors = np.asarray(picks, dtype=np.int64)
        neighbors = np.asarray(ids, dtype=np.int64)
        lengths = np.diff(np.asarray(offsets, dtype=np.int64))
        slot = np.searchsorted(vertices, neighbors)
        np.minimum(slot, k - 1, out=slot)
        clash = vertices[slot] == neighbors
        clash &= colors[slot] == np.repeat(colors, lengths)
        rows = np.repeat(np.arange(k), lengths)
        conflicts = np.bincount(rows[clash], minlength=k)
        return tuple((conflicts == 0).tolist())
    get = dict(zip(awake, picks)).get
    bits = []
    for i, color in enumerate(picks):
        for j in range(offsets[i], offsets[i + 1]):
            if get(ids[j]) == color:
                bits.append(False)
                break
        else:
            bits.append(True)
    return tuple(bits)


def surviving_edges(
    edges: Iterable[Edge],
    sampled: Mapping[int, set[int]],
) -> list[Edge]:
    """The edges whose endpoints drew intersecting sample lists.

    Folds each vertex's sampled color set into one int bitmask (colors
    are small positive ints), then filters with a single ``&`` per edge —
    the popcount-style restatement of ``sampled[u] & sampled[v]`` set
    intersections.
    """
    masks: dict[int, int] = {}
    for v, colors in sampled.items():
        mask = 0
        for c in colors:
            mask |= 1 << c
        masks[v] = mask
    return [(u, v) for u, v in edges if masks[u] & masks[v]]
