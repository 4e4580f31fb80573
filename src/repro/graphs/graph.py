"""A minimal simple-graph type tuned for the coloring protocols.

Vertices are integers ``0..n-1``; edges are unordered pairs stored in
canonical ``(min, max)`` order.  The class favors the operations the
protocols need constantly: neighbor sets, degrees, edge iteration, induced
subgraphs, and cheap copies for the deferral/matching surgery of
Algorithm 2.

``Graph`` doubles as the *backend contract*: every method here (including
the accessor block at the bottom) is part of the API the protocols program
against, and :class:`repro.graphs.csr.CSRGraph` re-implements the whole
surface over flat index arrays.  Hot paths must go through the accessors
— ``iter_neighbors``, ``pack_vertices``, ``neighbors_in``,
``neighbor_colors``, ``induced_subgraph`` — rather than materializing
``neighbors()`` sets, so each backend can use its native representation.
Iteration orders are deterministic (increasing vertex order) so that the
two backends drive the shared randomness identically and protocol outputs
match bit-for-bit across backends.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from itertools import compress

__all__ = ["Edge", "Graph", "canonical_edge", "invert_mask"]

Edge = tuple[int, int]

_INVERT = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def invert_mask(mask: bytes) -> bytes:
    """Swap the 0 and 1 bytes of an edge mask (see :meth:`Graph.split_by_mask`)."""
    return mask.translate(_INVERT)


def canonical_edge(u: int, v: int) -> Edge:
    """The canonical ``(min, max)`` form of an undirected edge."""
    if u == v:
        raise ValueError(f"self-loops are not allowed: ({u}, {v})")
    return (u, v) if u < v else (v, u)


class Graph:
    """Undirected simple graph on the vertex set ``range(n)``."""

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        self.n = n
        self._adj: list[set[int]] = [set() for _ in range(n)]
        self._m = 0
        for u, v in edges:
            self.add_edge(u, v)

    # -- construction -----------------------------------------------------

    def add_edge(self, u: int, v: int) -> bool:
        """Add edge ``{u, v}``; return False if it was already present."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
        if u == v:
            raise ValueError(f"self-loops are not allowed: ({u}, {v})")
        if v in self._adj[u]:
            return False
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._m += 1
        return True

    def remove_edge(self, u: int, v: int) -> None:
        """Remove edge ``{u, v}``; raise KeyError if absent."""
        if v not in self._adj[u]:
            raise KeyError(f"edge ({u}, {v}) not in graph")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._m -= 1

    def copy(self) -> "Graph":
        """An independent deep copy."""
        clone = Graph(self.n)
        clone._adj = [set(neigh) for neigh in self._adj]
        clone._m = self._m
        return clone

    # -- queries ----------------------------------------------------------

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    def has_edge(self, u: int, v: int) -> bool:
        """True if ``{u, v}`` is an edge."""
        return 0 <= u < self.n and v in self._adj[u]

    def neighbors(self, v: int) -> set[int]:
        """The neighbor set of ``v`` (a live view; do not mutate)."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        """Degree of ``v``."""
        return len(self._adj[v])

    def degrees(self) -> list[int]:
        """Degree sequence indexed by vertex."""
        return [len(neigh) for neigh in self._adj]

    def max_degree(self) -> int:
        """Maximum degree Δ (0 for the empty graph)."""
        if self.n == 0:
            return 0
        return max(len(neigh) for neigh in self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate edges in sorted canonical order.

        The order is part of the backend contract: partitioners draw one
        public coin per edge while iterating, so every backend must
        enumerate edges identically for runs to be reproducible.
        """
        for u in range(self.n):
            for v in sorted(self._adj[u]):
                if u < v:
                    yield (u, v)

    def edge_list(self) -> list[Edge]:
        """All edges as a sorted list."""
        return list(self.edges())

    def vertices(self) -> range:
        """The vertex set."""
        return range(self.n)

    def subgraph_edges(self, edges: Iterable[Edge]) -> "Graph":
        """A graph on the same vertex set containing only ``edges``."""
        return Graph(self.n, (canonical_edge(u, v) for u, v in edges))

    def split_by_mask(self, mask: bytes) -> tuple["Graph", "Graph"]:
        """The subgraphs of the edges whose mask byte is 1 and 0.

        ``mask`` holds one 0/1 byte per edge, in :meth:`edges` order — the
        order being part of the backend contract, one mask describes the
        same split on every backend.
        """
        return (
            self.subgraph_edges(compress(self.edges(), mask)),
            self.subgraph_edges(compress(self.edges(), invert_mask(mask))),
        )

    def union(self, other: "Graph") -> "Graph":
        """Edge union of two graphs on the same vertex set."""
        if other.n != self.n:
            raise ValueError(f"vertex-set mismatch: {self.n} != {other.n}")
        return type(self)(self.n, [*self.edges(), *other.edges()])

    def is_independent_set(self, vertices: Iterable[int]) -> bool:
        """True if no two of ``vertices`` are adjacent."""
        vset = set(vertices)
        return all(not (self._adj[v] & vset) for v in vset)

    # -- backend-agnostic accessors ---------------------------------------
    #
    # The protocols' hot paths call these instead of materializing
    # ``neighbors()``; CSRGraph overrides them with row scans over its
    # flat index arrays.

    def iter_neighbors(self, v: int) -> Iterator[int]:
        """Iterate the neighbors of ``v`` in increasing order."""
        return iter(sorted(self._adj[v]))

    def pack_vertices(self, vertices: Iterable[int]) -> object:
        """Pack a vertex collection into this backend's native set type.

        The result is opaque — pass it back to :meth:`neighbors_in`.  The
        set backend uses a frozenset.
        """
        return frozenset(vertices)

    def neighbors_in(self, v: int, packed: object) -> list[int]:
        """Neighbors of ``v`` inside a :meth:`pack_vertices` result, sorted."""
        return sorted(self._adj[v] & packed)  # type: ignore[operator]

    def has_neighbor_in(self, v: int, packed: object) -> bool:
        """Whether any neighbor of ``v`` lies in a :meth:`pack_vertices` result.

        The existence probe behind the batch confirmation sweeps: no
        neighbor list is materialized or sorted.
        """
        return not self._adj[v].isdisjoint(packed)  # type: ignore[arg-type]

    def neighbor_colors(self, v: int, coloring: Mapping[int, int]) -> set[int]:
        """The colors that ``coloring`` assigns to neighbors of ``v``."""
        return {coloring[u] for u in self._adj[v] if u in coloring}

    def induced_subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Same vertex range, keeping only edges inside ``vertices``."""
        vset = set(vertices)
        sub = type(self)(self.n)
        for u in vset:
            inside = self._adj[u] & vset
            if inside:
                sub._adj[u] = set(inside)
                sub._m += len(inside)
        sub._m //= 2
        return sub

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self.n != other.n or self.m != other.m:
            return False
        return all(self.neighbors(v) == other.neighbors(v) for v in range(self.n))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._m}, max_degree={self.max_degree()})"
