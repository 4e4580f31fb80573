"""Constructive Fournier coloring (Proposition 3.5).

Fournier's theorem: if the vertices of maximum degree ``Δ`` form an
independent set, the graph is class one — edge colorable with ``Δ`` colors.
Algorithm 2 of the paper leans on this twice (each party colors their
remaining subgraph with a palette of exactly ``Δ−1`` colors).

Constructively we run the Misra–Gries fan procedure with ``k = Δ`` colors in
**two phases** chosen so its preconditions (free colors at the center and at
every fan vertex) always hold:

* *Phase 1* colors every edge with **no** max-degree endpoint.  At this
  point no edge incident to a max-degree vertex is colored, so max-degree
  vertices have completely free palettes; all other vertices have degree
  ``≤ Δ−1 < k`` and therefore always retain a free color.
* *Phase 2* colors the edges incident to max-degree vertices, centering each
  fan at the (unique, by independence) max-degree endpoint.  The center's
  neighbors all have degree ``< Δ`` (independence), hence free colors; the
  center itself has a free color while one of its edges is still uncolored.

Kempe-chain inversions only permute colors along paths, so they never
invalidate these degree-based guarantees.
"""

from __future__ import annotations

from ..graphs.graph import Edge, Graph
from .fan import color_edges
from .state import EdgeColoringState

__all__ = ["fournier_edge_coloring"]


def fournier_edge_coloring(graph: Graph, num_colors: int | None = None) -> dict[Edge, int]:
    """A proper edge coloring with ``Δ`` colors (Proposition 3.5).

    Requires the maximum-degree vertices to form an independent set; raises
    ``ValueError`` otherwise.  ``num_colors`` may widen the palette beyond
    ``Δ`` (used by Algorithm 2 to embed the coloring in a party palette).
    """
    delta = graph.max_degree()
    if delta == 0:
        return {}
    k = delta if num_colors is None else num_colors
    if k < delta:
        raise ValueError(f"Fournier needs at least Δ = {delta} colors, got {k}")
    if k == delta:
        heavy = {v for v, d in enumerate(graph.degrees()) if d == delta}
        if not graph.is_independent_set(heavy):
            raise ValueError(
                "max-degree vertices are not an independent set; "
                "Fournier's theorem does not apply"
            )
    else:
        # With k ≥ Δ+1 the palette is Vizing-sized: no vertex can saturate
        # it, so no independence requirement and a single phase suffices.
        heavy = set()

    state = EdgeColoringState(graph.n, k)
    if not heavy:
        color_edges(state, graph.edges())
        return state.colors()
    # Phase 1 edges first, then phase 2 edges as (center, leaf) pairs.
    phase_one: list[Edge] = []
    phase_two: list[Edge] = []
    for u, v in graph.edges():
        if u in heavy:
            phase_two.append((u, v))
        elif v in heavy:
            phase_two.append((v, u))
        else:
            phase_one.append((u, v))
    color_edges(state, phase_one)
    color_edges(state, phase_two)
    return state.colors()
