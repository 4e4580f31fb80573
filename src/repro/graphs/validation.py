"""Validators for vertex, edge, and list colorings.

Every protocol test ends by calling one of these; they are deliberately
independent of the algorithms under test (re-checks of the definitions
that share no code with the colorers) so that a bug in an algorithm
cannot hide in its validator.

Each validator makes one pass over its input.  The vertex validators
resolve "mapping or sequence" once per call, not per lookup.  The edge
validator tests and sets one bit per color at both endpoints of each
edge, so a clash is a bit already set; only on that failure path does it
look up the earlier edge for the message.  The same pass over a partial
coloring finds the clashes for ``repro.verify`` and ``repro.core.weaker``.
The definition-level references (a per-vertex neighbor walk) live in
``tests/``, where a differential fuzz holds the two to the same verdicts
and diagnostics.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence

from .graph import Edge, Graph

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
    color_of = _color_getter(colors, graph.n)
    for v in graph.vertices():
        color = color_of(v)
        if color is None:
            return False
        if num_colors is not None and not 1 <= color <= num_colors:
            return False
    return not _conflicts(graph, color_of)


def vertex_coloring_conflicts(
    graph: Graph,
    colors: Mapping[int, int] | Sequence[int],
) -> list[Edge]:
    """All monochromatic edges under a (possibly partial) coloring."""
    return _conflicts(graph, _color_getter(colors, graph.n))


def _conflicts(graph: Graph, color_of: Callable[[int], int | None]) -> list[Edge]:
    conflicts = []
    for u, v in graph.edges():
        cu = color_of(u)
        if cu is not None and cu == color_of(v):
            conflicts.append((u, v))
    return conflicts


def assert_proper_vertex_coloring(
    graph: Graph,
    colors: Mapping[int, int] | Sequence[int],
    num_colors: int | None = None,
) -> None:
    """Raise ``AssertionError`` with a diagnostic if the coloring is improper."""
    color_of = _color_getter(colors, graph.n)
    for v in graph.vertices():
        color = color_of(v)
        if color is None:
            raise AssertionError(f"vertex {v} is uncolored")
        if num_colors is not None and not 1 <= color <= num_colors:
            raise AssertionError(
                f"vertex {v} has color {color} outside palette [1..{num_colors}]"
            )
    conflicts = _conflicts(graph, color_of)
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
    # When the m keys already name the m canonical edges, every edge is
    # colored and the keys need no normalizing.
    if len(colors) == graph.m and all(map(colors.__contains__, graph.edges())):
        normalized, uncolored = colors, False
    else:
        normalized = {(u, v) if u < v else (v, u): c for (u, v), c in colors.items()}
        if len(normalized) != len(colors):
            for (u, v), color in colors.items():
                other = colors.get((v, u), color)
                if u < v and other != color:
                    raise AssertionError(
                        f"edge {(u, v)} is keyed twice with colors {color} and {other}"
                    )
        uncolored = not all(map(normalized.__contains__, graph.edges()))
    values = normalized.values()
    if uncolored or (
        num_colors is not None
        and values
        and not (1 <= min(values) and max(values) <= num_colors)
    ):
        # Name the first offender in edges() order.  Only a non-edge key may
        # have tripped the palette test; then this finds none, and the
        # non-edge check below reports it.
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
    # Every key is now an edge and every edge colored.
    clashes = _edge_clashes(graph, normalized)
    if clashes:
        earlier, edge, color, w = clashes[0]
        raise AssertionError(
            f"edges {earlier} and {edge} share color {color} at vertex {w}"
        )


def _edge_clashes(
    graph: Graph, colors: Mapping[Edge, int]
) -> list[tuple[Edge, Edge, int, int]]:
    """Every clash of a possibly partial edge coloring, in ``colors`` order.

    ``colors`` is keyed by canonical edges of ``graph``; the edges it
    leaves out are skipped.  One pass sets each edge's color bit at both
    endpoints, and a bit already set at an endpoint ``w`` is a clash,
    returned as ``(earlier, edge, color, w)`` where ``earlier`` is the
    first edge of that color at ``w``.  Bits index the distinct colors,
    so masks stay as narrow as the coloring whatever the color values
    are.  Only when there are clashes does a second pass look up the
    earlier edges.
    """
    bit_of = {color: 1 << i for i, color in enumerate(set(colors.values()))}
    used = [0] * graph.n
    found = []
    for edge, color in colors.items():
        bit = bit_of[color]
        u, v = edge
        if (used[u] | used[v]) & bit:
            found.append((edge, color, u if used[u] & bit else v))
        used[u] |= bit
        used[v] |= bit
    if not found:
        return []
    wanted = {(w, color) for _, color, w in found}
    first: dict[tuple[int, int], Edge] = {}
    for edge, color in colors.items():
        for w in edge:
            if (w, color) in wanted:
                first.setdefault((w, color), edge)
    return [(first[w, color], edge, color, w) for edge, color, w in found]


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


def _color_getter(
    colors: Mapping[int, int] | Sequence[int], n: int
) -> Callable[[int], int | None]:
    """``v → color`` (None if absent) for ``v`` in ``range(n)``, resolved once.

    A mapping answers through ``.get``; a sequence shorter than ``n`` is
    padded with None so that every vertex indexes it.
    """
    if isinstance(colors, Mapping):
        return colors.get
    if len(colors) < n:
        colors = [*colors, *[None] * (n - len(colors))]
    return colors.__getitem__
