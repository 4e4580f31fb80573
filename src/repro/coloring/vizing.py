"""Constructive Vizing edge coloring (Proposition 3.4).

Colors any simple graph with ``Δ+1`` colors by extending a partial coloring
one edge at a time with the Misra–Gries fan procedure.  With ``k = Δ+1``
every vertex always has a free color, so the procedure's preconditions hold
unconditionally.  Runs in ``O(m·n)`` worst case, plenty for the sizes the
protocols and benchmarks use.
"""

from __future__ import annotations

from ..graphs.graph import Edge, Graph
from .fan import color_edges
from .state import EdgeColoringState

__all__ = ["common_free_color", "vizing_edge_coloring"]


#: A palette color free at both endpoints, if any:
#: ``common_free_color(state, u, v)``, the lowest set bit of the two
#: endpoints' free masks (the test :func:`~repro.coloring.fan.color_edges`
#: inlines before falling back to a fan).
common_free_color = EdgeColoringState.common_free_color


def vizing_edge_coloring(graph: Graph, num_colors: int | None = None) -> dict[Edge, int]:
    """A proper edge coloring of ``graph`` with ``Δ+1`` colors.

    ``num_colors`` may widen the palette (it must be ``≥ Δ+1``); the paper's
    protocols use this to color a low-degree subgraph inside a larger shared
    palette.
    """
    delta = graph.max_degree()
    k = delta + 1 if num_colors is None else num_colors
    if k < delta + 1:
        raise ValueError(f"Vizing needs at least Δ+1 = {delta + 1} colors, got {k}")
    state = EdgeColoringState(graph.n, k)
    color_edges(state, graph.edges())
    return state.colors()
