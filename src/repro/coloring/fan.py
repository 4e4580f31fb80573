"""The Misra–Gries fan procedure: color one edge of a partial coloring.

This single primitive powers both classical edge-coloring results the
protocols rely on:

* **Vizing (Proposition 3.4)** — with ``k = Δ+1`` colors every vertex always
  has a free color, and the procedure extends any partial coloring one edge
  at a time.
* **Fournier (Proposition 3.5)** — with ``k = Δ`` colors and the max-degree
  vertices forming an independent set, the procedure still applies provided
  edges are processed so that the fan center and all its neighbors have free
  colors (see :mod:`repro.coloring.fournier` for the two-phase order that
  guarantees this).

The procedure follows Misra & Gries ("A constructive proof of Vizing's
theorem", 1992): build a maximal fan around the center, invert one Kempe
chain through the center, then rotate a prefix of the fan.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..graphs.graph import Edge
from .state import EdgeColoringState

__all__ = ["FanProcedureError", "color_edge_with_fan", "color_edges"]


class FanProcedureError(RuntimeError):
    """The fan procedure could not color the edge (precondition violated)."""


def color_edge_with_fan(state: EdgeColoringState, center: int, leaf: int) -> None:
    """Color the uncolored edge ``{center, leaf}``.

    Preconditions (guaranteed by the callers' processing orders):

    * ``center`` has a free color;
    * every fan vertex (every relevant neighbor of ``center``) has a free
      color whenever consulted.

    Raises :class:`FanProcedureError` when a precondition fails.
    """
    if state.color_of(center, leaf) is not None:
        raise ValueError(f"edge ({center}, {leaf}) already colored")

    fan = _maximal_fan(state, center, leaf)

    c = state.some_free_color(center)
    if c is None:
        raise FanProcedureError(f"fan center {center} has no free color")
    d = state.some_free_color(fan[-1])
    if d is None:
        raise FanProcedureError(f"fan tail {fan[-1]} has no free color")

    if c != d:
        state.invert_kempe_path(center, c, d)

    w_index = _prefix_fan_with_free_color(state, center, fan, d)
    if w_index is None:
        raise FanProcedureError(
            f"no rotatable fan prefix at center {center} "
            "(Misra-Gries invariant violated; check caller preconditions)"
        )

    _rotate_and_color(state, center, fan[: w_index + 1], d)


def color_edges(state: EdgeColoringState, pairs: Iterable[Edge]) -> None:
    """Color the uncolored edges ``(u, v)`` of ``pairs``, one at a time, in order.

    Each edge takes the lowest palette color free at both endpoints,
    read off ``palette & ~(used[u] | used[v])`` and written straight into
    the state's masks, ``_at`` maps and edge-color dict; the fan
    procedure (with :meth:`EdgeColoringState.assign`'s checks) runs only
    when no common color is free, with ``u`` as its center.  The common
    color needs none of those checks: it is a palette bit free at both
    ends by construction, and the caller lists each edge once, uncolored.
    """
    palette = state._palette
    used, at, edge_color = state._used, state._at, state._edge_color
    # Color of a single-bit mask: one dict probe beats bit_length() here.
    color_of_bit = {1 << c: c for c in range(state.num_colors + 1)}
    for pair in pairs:
        u, v = pair
        free = palette & ~(used[u] | used[v])
        if free:
            bit = free & -free
            color = color_of_bit[bit]
            used[u] |= bit
            used[v] |= bit
            at[u][color] = v
            at[v][color] = u
            edge_color[pair if u < v else (v, u)] = color
        else:
            # A module-global lookup, so a test can count the fan calls.
            color_edge_with_fan(state, u, v)


def _maximal_fan(state: EdgeColoringState, center: int, leaf: int) -> list[int]:
    """Build a maximal fan ``[leaf, f2, ...]`` around ``center``.

    Fan invariant: the edge ``(center, fan[i+1])`` is colored with a color
    free at ``fan[i]``.  Maximality: no free color of the tail leads to a
    colored center-edge whose endpoint is outside the fan.
    """
    fan = [leaf]
    in_fan = {leaf}
    while True:
        tail = fan[-1]
        extended = False
        for color in state.free_colors(tail):
            nxt = state.neighbor_via(center, color)
            if nxt is not None and nxt not in in_fan:
                fan.append(nxt)
                in_fan.add(nxt)
                extended = True
                break
        if not extended:
            return fan


def _prefix_fan_with_free_color(
    state: EdgeColoringState,
    center: int,
    fan: list[int],
    d: int,
) -> int | None:
    """Largest index ``i`` with ``fan[:i+1]`` still a fan and ``d`` free at ``fan[i]``.

    Checked against the *current* coloring, i.e. after the Kempe-chain
    inversion, which may have invalidated a suffix of the original fan.
    """
    fan_ok_up_to = len(fan) - 1
    for t in range(len(fan) - 1):
        color = state.color_of(center, fan[t + 1])
        if color is None or not state.is_free(fan[t], color):
            fan_ok_up_to = t
            break
    for i in range(fan_ok_up_to, -1, -1):
        if state.is_free(fan[i], d):
            return i
    return None


def _rotate_and_color(
    state: EdgeColoringState,
    center: int,
    fan_prefix: list[int],
    d: int,
) -> None:
    """Shift fan colors down and color the final edge with ``d``.

    After rotation, edge ``(center, fan_prefix[t])`` takes the color that
    used to sit on ``(center, fan_prefix[t+1])`` — a color free at
    ``fan_prefix[t]`` by the fan invariant — and the last edge gets ``d``.
    """
    shifted: list[tuple[int, int]] = []
    for t in range(len(fan_prefix) - 1):
        color = state.unassign(center, fan_prefix[t + 1])
        shifted.append((fan_prefix[t], color))
    for vertex, color in shifted:
        state.assign(center, vertex, color)
    state.assign(center, fan_prefix[-1], d)
