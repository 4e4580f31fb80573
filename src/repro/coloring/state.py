"""Mutable edge-coloring state with O(1) per-vertex color queries.

Shared by the Vizing and Fournier edge colorings and the fan procedure.
Every vertex keeps two views of its colored edges, both maintained by
:meth:`EdgeColoringState.assign` and :meth:`EdgeColoringState.unassign`:

* ``_at[v]``, the map ``color → neighbor``, answers "which edge at ``v``
  has color ``c``?" — the query fan rotation and Kempe-chain inversion
  walk by;
* ``_used[v]``, an ``int`` bitmask with bit ``c`` set while a color-``c``
  edge touches ``v``, answers "is ``c`` free at ``v``?" with one bit test
  and "the lowest color free at both ``u`` and ``v``" with one
  ``palette & ~(used[u] | used[v])``.  Reading set bits lowest first
  gives the colors in the same increasing order a linear palette scan
  would, so the masks pick exactly the colors a scan picks.

:func:`repro.coloring.fan.color_edges` writes ``_used``, ``_at`` and
``_edge_color`` inline on its common-free-color path, so a change to
these views must change it too.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..graphs.graph import Edge, canonical_edge

__all__ = ["EdgeColoringState"]


class EdgeColoringState:
    """A partial proper edge coloring over palette ``{1..num_colors}``."""

    def __init__(self, n: int, num_colors: int) -> None:
        if num_colors < 0:
            raise ValueError(f"palette size must be non-negative, got {num_colors}")
        self.n = n
        self.num_colors = num_colors
        self._edge_color: dict[Edge, int] = {}
        self._at: list[dict[int, int]] = [{} for _ in range(n)]
        self._used: list[int] = [0] * n
        #: Bits ``1..num_colors``: the palette as a mask.
        self._palette = (1 << (num_colors + 1)) - 2

    # -- queries ----------------------------------------------------------

    def color_of(self, u: int, v: int) -> int | None:
        """Color of edge ``{u, v}`` or None if uncolored."""
        return self._edge_color.get(canonical_edge(u, v))

    def neighbor_via(self, v: int, color: int) -> int | None:
        """The neighbor reached from ``v`` along its ``color`` edge, if any."""
        return self._at[v].get(color)

    def is_free(self, v: int, color: int) -> bool:
        """True if no colored edge at ``v`` uses ``color`` (a non-negative int)."""
        return not self._used[v] >> color & 1

    def free_colors(self, v: int) -> Iterator[int]:
        """Palette colors unused at ``v``, in increasing order."""
        free = self._palette & ~self._used[v]
        while free:
            low = free & -free
            yield low.bit_length() - 1
            free ^= low

    def some_free_color(self, v: int) -> int | None:
        """The smallest free color at ``v`` (None if the palette is saturated)."""
        free = self._palette & ~self._used[v]
        return (free & -free).bit_length() - 1 if free else None

    def common_free_color(self, u: int, v: int) -> int | None:
        """The smallest palette color free at both ``u`` and ``v``, if any."""
        used = self._used
        free = self._palette & ~(used[u] | used[v])
        return (free & -free).bit_length() - 1 if free else None

    def colors(self) -> dict[Edge, int]:
        """A copy of the full edge-color assignment."""
        return dict(self._edge_color)

    def colored_edge_count(self) -> int:
        """Number of edges currently colored."""
        return len(self._edge_color)

    # -- mutation ---------------------------------------------------------

    def assign(self, u: int, v: int, color: int) -> None:
        """Color ``{u, v}`` with ``color``; the edge must be uncolored and
        the color free at both endpoints."""
        if not 1 <= color <= self.num_colors:
            raise ValueError(f"color {color} outside palette [1..{self.num_colors}]")
        edge = canonical_edge(u, v)
        if edge in self._edge_color:
            raise ValueError(f"edge {edge} already colored")
        used = self._used
        bit = 1 << color
        if (used[u] | used[v]) & bit:
            raise ValueError(f"color {color} not free at an endpoint of {edge}")
        self._edge_color[edge] = color
        self._at[u][color] = v
        self._at[v][color] = u
        used[u] |= bit
        used[v] |= bit

    def unassign(self, u: int, v: int) -> int:
        """Remove the color of ``{u, v}`` and return it."""
        color = self._edge_color.pop(canonical_edge(u, v))
        del self._at[u][color]
        del self._at[v][color]
        bit = 1 << color
        self._used[u] ^= bit
        self._used[v] ^= bit
        return color

    def recolor(self, u: int, v: int, color: int) -> None:
        """Atomically change the color of a colored edge."""
        self.unassign(u, v)
        self.assign(u, v, color)

    def invert_kempe_path(self, start: int, alpha: int, beta: int) -> list[int]:
        """Flip colors along the maximal α/β path starting at ``start``.

        Returns the vertices of the path in order (starting at ``start``).
        ``start`` must be incident to at most one of the two colors, so the
        path is well defined; interior vertices see both colors before and
        after, so properness is preserved and only the two endpoints' free
        sets change.
        """
        if alpha == beta:
            raise ValueError("Kempe path needs two distinct colors")
        if alpha in self._at[start] and beta in self._at[start]:
            raise ValueError(f"vertex {start} has both colors {alpha}/{beta}")
        path_vertices = [start]
        path_edges: list[tuple[int, int, int]] = []
        current = start
        want = beta if beta in self._at[start] else alpha
        previous = None
        while True:
            nxt = self._at[current].get(want)
            if nxt is None or nxt == previous:
                break
            path_edges.append((current, nxt, want))
            path_vertices.append(nxt)
            previous, current = current, nxt
            want = alpha if want == beta else beta
        for u, v, color in path_edges:
            self.unassign(u, v)
        for u, v, color in path_edges:
            self.assign(u, v, alpha if color == beta else beta)
        return path_vertices
