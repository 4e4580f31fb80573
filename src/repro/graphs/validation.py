"""Validators for vertex, edge, and list colorings.

Every protocol test ends by calling one of these; they are deliberately
independent of the algorithms under test (straight re-checks of the
definitions) so that a bug in an algorithm cannot hide in its validator.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from .graph import Edge, Graph, canonical_edge

__all__ = [
    "assert_proper_edge_coloring",
    "assert_proper_vertex_coloring",
    "is_proper_edge_coloring",
    "is_proper_list_coloring",
    "is_proper_vertex_coloring",
    "vertex_coloring_conflicts",
]


def is_proper_vertex_coloring(
    graph: Graph,
    colors: Mapping[int, int] | Sequence[int],
    num_colors: int | None = None,
) -> bool:
    """True if every vertex is colored and no edge is monochromatic.

    If ``num_colors`` is given, colors must additionally lie in
    ``range(1, num_colors + 1)`` (the paper's palette ``[Δ+1]``).
    """
    for v in graph.vertices():
        color = _lookup(colors, v)
        if color is None:
            return False
        if num_colors is not None and not 1 <= color <= num_colors:
            return False
    return not vertex_coloring_conflicts(graph, colors)


def vertex_coloring_conflicts(
    graph: Graph,
    colors: Mapping[int, int] | Sequence[int],
) -> list[Edge]:
    """All monochromatic edges under a (possibly partial) coloring."""
    conflicts = []
    for u, v in graph.edges():
        cu, cv = _lookup(colors, u), _lookup(colors, v)
        if cu is not None and cu == cv:
            conflicts.append((u, v))
    return conflicts


def assert_proper_vertex_coloring(
    graph: Graph,
    colors: Mapping[int, int] | Sequence[int],
    num_colors: int | None = None,
) -> None:
    """Raise ``AssertionError`` with a diagnostic if the coloring is improper."""
    for v in graph.vertices():
        color = _lookup(colors, v)
        if color is None:
            raise AssertionError(f"vertex {v} is uncolored")
        if num_colors is not None and not 1 <= color <= num_colors:
            raise AssertionError(
                f"vertex {v} has color {color} outside palette [1..{num_colors}]"
            )
    conflicts = vertex_coloring_conflicts(graph, colors)
    if conflicts:
        raise AssertionError(f"monochromatic edges: {conflicts[:5]}")


def is_proper_edge_coloring(
    graph: Graph,
    colors: Mapping[Edge, int],
    num_colors: int | None = None,
) -> bool:
    """True if every edge is colored and incident edges get distinct colors."""
    try:
        assert_proper_edge_coloring(graph, colors, num_colors)
    except AssertionError:
        return False
    return True


def assert_proper_edge_coloring(
    graph: Graph,
    colors: Mapping[Edge, int],
    num_colors: int | None = None,
) -> None:
    """Raise ``AssertionError`` with a diagnostic if the edge coloring is improper.

    Besides uncolored edges, palette violations and clashes at a vertex,
    this rejects keys that name no edge of ``graph`` and one edge keyed
    twice — as ``(u, v)`` and ``(v, u)`` — with different colors.
    """
    normalized = {(u, v) if u < v else (v, u): c for (u, v), c in colors.items()}
    if len(normalized) != len(colors):
        for (u, v), color in colors.items():
            other = colors.get((v, u), color)
            if u < v and other != color:
                raise AssertionError(
                    f"edge {(u, v)} is keyed twice with colors {color} and {other}"
                )
    for edge in graph.edges():
        if edge not in normalized:
            raise AssertionError(f"edge {edge} is uncolored")
        color = normalized[edge]
        if num_colors is not None and not 1 <= color <= num_colors:
            raise AssertionError(
                f"edge {edge} has color {color} outside palette [1..{num_colors}]"
            )
    if len(normalized) != graph.m:
        # Every edge is colored, so the surplus keys are non-edges.
        extra = sorted(set(normalized) - set(graph.edges()))
        raise AssertionError(f"colors keyed on non-edges: {extra[:5]}")
    for v in graph.vertices():
        seen: dict[int, Edge] = {}
        for u in graph.neighbors(v):
            edge = canonical_edge(u, v)
            color = normalized[edge]
            if color in seen:
                raise AssertionError(
                    f"edges {seen[color]} and {edge} share color {color} at vertex {v}"
                )
            seen[color] = edge


def is_proper_list_coloring(
    graph: Graph,
    colors: Mapping[int, int],
    lists: Mapping[int, set[int]],
) -> bool:
    """True if the coloring is proper and every vertex uses its own list."""
    for v in graph.vertices():
        color = colors.get(v)
        if color is None or color not in lists.get(v, set()):
            return False
    return not vertex_coloring_conflicts(graph, colors)


def _lookup(colors: Mapping[int, int] | Sequence[int], v: int):
    """Color of ``v`` under either a mapping or a sequence, None if absent."""
    if isinstance(colors, Mapping):
        return colors.get(v)
    if 0 <= v < len(colors):
        return colors[v]
    return None
