"""Whole-neighborhood batch probes for the protocol hot loops.

The per-vertex inner loops of Random-Color-Trial and D1LC spend their
time asking set-membership questions vertex by vertex.  These helpers
restate those questions as batch sweeps:

* :func:`confirmation_bits` — the Algorithm 1 confirmation check: each
  awake vertex's adjacency row is scanned once against one awake-only
  color dict, stopping at the first neighbor that chose the same color.
* :func:`surviving_edges` — D1LC step 2's disjointness filter over int
  color bitmasks: each sampled list folds to one int, and an edge
  survives iff the endpoint masks intersect (``&`` + truthiness), with
  no per-edge set allocation.

Both are pure local computation (no draws, no communication) and produce
exactly the values the inline loops they replace produced, so transcripts
and colorings are unchanged — pinned by the equivalence tests.  The
batched *randomness* feeding these loops (participation coins, sampled
lists) comes from the :mod:`repro.rand.kernels` dispatch underneath
``Stream.coins`` and friends.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from ..graphs.graph import Edge, Graph

__all__ = ["confirmation_bits", "surviving_edges"]


def confirmation_bits(
    own_graph: Graph,
    awake: Sequence[int],
    chosen: Mapping[int, int],
) -> tuple[bool, ...]:
    """One confirmation bit per awake vertex: no own-side conflict.

    Equivalent to ``all(chosen[u] != chosen[v] for u in N_own(v) ∩ awake)``
    per awake ``v``: one row scan per vertex, comparing colors through a
    dict that holds only the awake vertices, so a sleeping neighbor never
    matches.
    """
    # Reads the CSR rows in place: slicing a row per vertex costs more
    # than the scan, which usually stops early.
    indptr, indices, deg = own_graph._indptr, own_graph._indices, own_graph._deg
    colors = {v: chosen[v] for v in awake}
    get = colors.get
    bits = []
    for v in awake:
        color = colors[v]
        start = indptr[v]
        for i in range(start, start + deg[v]):
            if get(indices[i]) == color:
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
