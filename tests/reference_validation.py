"""A definition-level edge-coloring validator to check the real one against.

Independent of ``repro.graphs.validation``: it normalizes every key,
walks the edges for uncolored and off-palette ones, and then walks every
vertex's neighbor row with a fresh ``seen`` dict, the textbook statement
of "incident edges get distinct colors".  It raises the same diagnostics
in the same order of precedence (keyed twice, uncolored or off-palette,
non-edges, clash), so a differential test can compare verdicts and
messages with the one-pass bitmask validator.
"""

from __future__ import annotations

from repro.graphs import canonical_edge


def reference_assert_proper_edge_coloring(graph, colors, num_colors=None) -> None:
    """Raise ``AssertionError`` with a diagnostic if the edge coloring is improper."""
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
        extra = sorted(set(normalized) - set(graph.edges()))
        raise AssertionError(f"colors keyed on non-edges: {extra[:5]}")
    for v in graph.vertices():
        seen = {}
        for u in graph.neighbors(v):
            edge = canonical_edge(u, v)
            color = normalized[edge]
            if color in seen:
                raise AssertionError(
                    f"edges {seen[color]} and {edge} share color {color} at vertex {v}"
                )
            seen[color] = edge


def reference_is_proper_edge_coloring(graph, colors, num_colors=None) -> bool:
    try:
        reference_assert_proper_edge_coloring(graph, colors, num_colors)
    except AssertionError:
        return False
    return True
