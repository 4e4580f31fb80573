"""Bitset graph backend: adjacency as Python-int bitmasks.

:class:`BitsetGraph` stores the neighborhood of each vertex as one
arbitrary-precision integer whose bit ``u`` flags the edge ``{v, u}``.
Python ints give word-parallel set algebra for free — ``&`` intersects a
neighborhood with any packed vertex set in O(n/64) machine words,
``int.bit_count()`` is a hardware popcount, and copying a graph is a flat
list-of-ints copy — which is exactly the operation mix of the protocol hot
paths (confirmation scans over the awake set, leftover-subgraph
extraction, independence checks, and the copy-heavy deferral surgery of
Algorithm 2).

The class implements the full :class:`~repro.graphs.graph.Graph` contract,
including iteration orders: neighbors enumerate in increasing vertex order
(the order of set bits), and ``edges()`` enumerates in sorted canonical
order, so a protocol run on a ``BitsetGraph`` consumes the shared random
tape identically to the same run on a set-backed ``Graph`` and produces
bit-for-bit identical transcripts.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

from .csr import CSRGraph
from .graph import Edge, Graph

__all__ = ["BitsetGraph", "GRAPH_BACKENDS", "as_backend", "iter_bits"]


def iter_bits(mask: int) -> Iterator[int]:
    """Iterate the set-bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class BitsetGraph(Graph):
    """Undirected simple graph on ``range(n)`` with bitmask adjacency."""

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        self.n = n
        self._bits: list[int] = [0] * n
        self._m = 0
        self._degs: list[int] | None = None
        self._maxdeg: int | None = None
        for u, v in edges:
            self.add_edge(u, v)

    # -- construction -----------------------------------------------------

    def add_edge(self, u: int, v: int) -> bool:
        """Add edge ``{u, v}``; return False if it was already present."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
        if u == v:
            raise ValueError(f"self-loops are not allowed: ({u}, {v})")
        if (self._bits[u] >> v) & 1:
            return False
        self._bits[u] |= 1 << v
        self._bits[v] |= 1 << u
        self._m += 1
        self._degs = None
        self._maxdeg = None
        return True

    def remove_edge(self, u: int, v: int) -> None:
        """Remove edge ``{u, v}``; raise KeyError if absent."""
        if not (0 <= u < self.n and (self._bits[u] >> v) & 1):
            raise KeyError(f"edge ({u}, {v}) not in graph")
        self._bits[u] &= ~(1 << v)
        self._bits[v] &= ~(1 << u)
        self._m -= 1
        self._degs = None
        self._maxdeg = None

    def copy(self) -> "BitsetGraph":
        """An independent deep copy (a flat copy of the mask list)."""
        clone = BitsetGraph(self.n)
        clone._bits = list(self._bits)
        clone._m = self._m
        clone._degs = list(self._degs) if self._degs is not None else None
        clone._maxdeg = self._maxdeg
        return clone

    # -- queries ----------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        """True if ``{u, v}`` is an edge."""
        return 0 <= u < self.n and 0 <= v < self.n and bool((self._bits[u] >> v) & 1)

    def neighbors(self, v: int) -> set[int]:
        """The neighbor set of ``v`` (a fresh set; cheap for small degrees)."""
        return set(iter_bits(self._bits[v]))

    def neighbor_mask(self, v: int) -> int:
        """The raw adjacency bitmask of ``v`` (bit ``u`` set iff ``{v,u}``)."""
        return self._bits[v]

    def degree(self, v: int) -> int:
        """Degree of ``v`` (a popcount)."""
        return self._bits[v].bit_count()

    def degrees(self) -> list[int]:
        """Degree sequence indexed by vertex (popcounts cached until mutated)."""
        if self._degs is None:
            self._degs = [bits.bit_count() for bits in self._bits]
        return list(self._degs)

    def max_degree(self) -> int:
        """Maximum degree Δ (0 for the empty graph); cached until mutated."""
        if self._maxdeg is None:
            if self._degs is None:
                self._degs = [bits.bit_count() for bits in self._bits]
            self._maxdeg = max(self._degs, default=0)
        return self._maxdeg

    def edges(self) -> Iterator[Edge]:
        """Iterate edges in sorted canonical order (see the base contract)."""
        for u in range(self.n):
            higher = self._bits[u] >> (u + 1)
            for offset in iter_bits(higher):
                yield (u, u + 1 + offset)

    def subgraph_edges(self, edges: Iterable[Edge]) -> "BitsetGraph":
        """A bitset graph on the same vertex set containing only ``edges``."""
        return BitsetGraph(self.n, edges)

    def union(self, other: Graph) -> "BitsetGraph":
        """Edge union of two graphs on the same vertex set."""
        if other.n != self.n:
            raise ValueError(f"vertex-set mismatch: {self.n} != {other.n}")
        merged = self.copy()
        for u, v in other.edges():
            merged.add_edge(u, v)
        return merged

    def is_independent_set(self, vertices: Iterable[int]) -> bool:
        """True if no two of ``vertices`` are adjacent (mask intersection)."""
        members = list(vertices)
        mask = self.pack_vertices(members)
        return all(not (self._bits[v] & mask) for v in members)

    # -- backend-agnostic accessors ---------------------------------------

    def iter_neighbors(self, v: int) -> Iterator[int]:
        """Iterate the neighbors of ``v`` in increasing order."""
        return iter_bits(self._bits[v])

    def pack_vertices(self, vertices: Iterable[int]) -> int:
        """Pack a vertex collection into one int mask.

        Builds through a bytearray: repeated big-int ``|=`` would copy the
        whole mask per vertex, this stays O(n) byte writes + one decode.
        """
        buf = bytearray((self.n >> 3) + 1)
        for v in vertices:
            buf[v >> 3] |= 1 << (v & 7)
        return int.from_bytes(buf, "little")

    def neighbors_in(self, v: int, packed: int) -> list[int]:
        """Neighbors of ``v`` inside a packed mask, in increasing order."""
        mask = self._bits[v] & packed
        out = []
        while mask:  # inlined iter_bits: this is the hottest accessor
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def has_neighbor_in(self, v: int, packed: int) -> bool:
        """Whether any neighbor of ``v`` lies in the packed mask.

        One word-parallel AND — no bit extraction — so the confirmation
        sweeps cost O(n/64) words per vertex instead of a neighbor walk.
        """
        return bool(self._bits[v] & packed)

    def neighbor_colors(self, v: int, coloring: Mapping[int, int]) -> set[int]:
        """The colors that ``coloring`` assigns to neighbors of ``v``."""
        mask = self._bits[v]
        used = set()
        while mask:
            low = mask & -mask
            u = low.bit_length() - 1
            mask ^= low
            if u in coloring:
                used.add(coloring[u])
        return used

    def induced_subgraph(self, vertices: Iterable[int]) -> "BitsetGraph":
        """Same vertex range, keeping only edges inside ``vertices``.

        One mask AND per member vertex — the whole neighborhood filter is
        word-parallel instead of per-edge.
        """
        mask = self.pack_vertices(vertices)
        sub = BitsetGraph(self.n)
        total = 0
        for v in iter_bits(mask):
            inside = self._bits[v] & mask
            if inside:
                sub._bits[v] = inside
                total += inside.bit_count()
        sub._m = total // 2
        return sub

    def __repr__(self) -> str:
        return f"BitsetGraph(n={self.n}, m={self._m}, max_degree={self.max_degree()})"


#: Registered graph backends, keyed by the names the engine and CLI use.
GRAPH_BACKENDS: dict[str, type[Graph]] = {
    "set": Graph,
    "bitset": BitsetGraph,
    "csr": CSRGraph,
}


def as_backend(graph: Graph, backend: str) -> Graph:
    """Convert ``graph`` to the named backend (no-op if already there).

    Conversion preserves the vertex range and edge set exactly, so a
    workload generated once with the default backend can be replayed on any
    other backend with identical protocol behavior.  CSR rows are copied
    straight from ``iter_neighbors``, which every backend enumerates sorted
    and duplicate-free.
    """
    try:
        cls = GRAPH_BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown graph backend {backend!r}; choose from {sorted(GRAPH_BACKENDS)}"
        ) from None
    if type(graph) is cls:
        return graph
    if cls is CSRGraph:
        return CSRGraph.from_rows(graph.n, map(graph.iter_neighbors, range(graph.n)))
    return cls(graph.n, graph.edges())
