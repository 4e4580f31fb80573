"""Whole-neighborhood batch probes for the protocol hot loops.

The per-vertex inner loops of Random-Color-Trial and D1LC spend their
time asking set-membership questions vertex by vertex.  These helpers
restate those questions as batch sweeps over packed masks:

* :func:`confirmation_bits` — the Algorithm 1 confirmation check, as a
  *color-class sweep*: awake vertices are grouped by their trial color,
  each class is packed once into the backend's native mask, and a vertex
  conflicts iff it has a neighbor inside its own class — one
  ``has_neighbor_in`` probe instead of walking every awake neighbor and
  comparing colors.
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
    per awake ``v``: a neighbor disagrees on color exactly when it sits in
    a *different* color class, so ``v`` is conflict-free iff it has no
    neighbor inside its own class.  Each class is packed once; the sweep
    is then one existence probe per vertex.

    Backends may carry a native ``confirmation_bits`` method (the CSR
    backend sweeps its index rows directly instead of packing per-class
    masks); it must return exactly the booleans of the generic sweep
    below.  The set backend defines no such hook and takes the generic
    path unchanged.
    """
    backend_sweep = getattr(own_graph, "confirmation_bits", None)
    if backend_sweep is not None:
        return backend_sweep(awake, chosen)
    by_color: dict[int, list[int]] = {}
    for v in awake:
        by_color.setdefault(chosen[v], []).append(v)
    class_packed = {
        color: own_graph.pack_vertices(members)
        for color, members in by_color.items()
    }
    has_neighbor_in = own_graph.has_neighbor_in
    return tuple(not has_neighbor_in(v, class_packed[chosen[v]]) for v in awake)


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
