"""CSR graph backend: adjacency as flat index arrays.

:class:`CSRGraph` stores the whole adjacency structure in two flat
``array('q')`` buffers — ``indptr`` (row offsets, length ``n + 1``) and
``indices`` (concatenated sorted neighbor lists, length ``2m``) — the
compressed-sparse-row layout every production graph system converges on.
Memory is O(n + m) words regardless of density, which is what makes the
million-vertex tier real: a sparse n = 10⁶ instance fits in tens of
megabytes where dense per-vertex bitmasks would need O(n²) bits
(~125 GB).

When numpy is importable (and not disabled via ``REPRO_NO_NUMPY=1``),
bulk construction vectorizes the sort/dedup/offset pipeline; the
pure-Python fallback builds the same arrays with a counting sort.  Both
paths produce byte-identical buffers, and numpy scalars never escape —
storage is ``array('q)'``, so every query returns plain Python ints.

The protocols build every graph in one constructor call and only remove
edges afterwards (the Theorem 2/3 surgery on copies): ``remove_edge``
shifts one row in place (O(deg)), leaving slack at the row's end, and
``add_edge``, which no protocol calls, rebuilds the arrays (O(n + m)).
Iteration orders match the backend contract exactly — neighbors
enumerate in increasing order and ``edges()`` in sorted canonical order
— so a protocol run on a ``CSRGraph`` consumes the shared random tape
identically to the set backend and produces bit-for-bit identical
transcripts.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Mapping
from operator import sub

from ..rand import kernels as _kernels
from .graph import Edge, Graph

__all__ = [
    "CSRGraph",
    "GRAPH_BACKENDS",
    "GraphBuilder",
    "as_backend",
    "from_edge_stream",
]

#: Below this many directed entries the numpy build costs more than it saves.
_NUMPY_BUILD_MIN = 1024


def _zeros(count: int) -> array:
    """A zero-filled ``array('q')`` of ``count`` entries."""
    return array("q", bytes(8 * count))


def _from_numpy(values) -> array:
    """An ``array('q')`` holding a numpy int64 vector's values."""
    out = array("q")
    out.frombytes(values.tobytes())
    return out


def _build_arrays(n: int, us: array, vs: array) -> tuple[array, array]:
    """CSR ``(indptr, indices)`` from parallel endpoint arrays.

    Rows come out sorted ascending and deduplicated; both directions of
    every pair are inserted, so ``us``/``vs`` carry each undirected edge
    once (in either order).  The numpy and pure paths are byte-identical.
    """
    np = _kernels._np
    if np is not None and len(us) >= _NUMPY_BUILD_MIN:
        head = np.frombuffer(us, dtype=np.int64)
        tail = np.frombuffer(vs, dtype=np.int64)
        src = np.concatenate([head, tail])
        dst = np.concatenate([tail, head])
        order = np.lexsort((dst, src))
        src = src[order]
        dst = dst[order]
        keep = np.ones(src.size, dtype=bool)
        keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        src = src[keep]
        dst = dst[keep]
        counts = np.bincount(src, minlength=n)
        indptr_np = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr_np[1:])
        return _from_numpy(indptr_np), _from_numpy(dst)

    # Pure path: counting sort into place, then per-row sort + dedup with
    # an in-place forward compaction (the write cursor never passes a
    # row's unread start, so no second buffer is needed).
    counts = _zeros(n)
    for u in us:
        counts[u] += 1
    for v in vs:
        counts[v] += 1
    indptr = _zeros(n + 1)
    total = 0
    for i in range(n):
        indptr[i] = total
        total += counts[i]
    indptr[n] = total
    cursor = array("q", indptr[:n])
    indices = _zeros(total)
    for u, v in zip(us, vs):
        indices[cursor[u]] = v
        cursor[u] += 1
        indices[cursor[v]] = u
        cursor[v] += 1
    write = 0
    for i in range(n):
        start, end = indptr[i], indptr[i + 1]
        row = sorted(set(indices[start:end]))
        indptr[i] = write
        for x in row:
            indices[write] = x
            write += 1
    indptr[n] = write
    del indices[write:]
    return indptr, indices


def _assemble(n: int, indptr: array, indices: array) -> "CSRGraph":
    """A :class:`CSRGraph` over compact arrays (sorted rows, no slack)."""
    graph = CSRGraph.__new__(CSRGraph)
    graph.n = n
    graph._indptr = indptr
    graph._indices = indices
    graph._deg = array("q", map(sub, indptr[1:], indptr[:-1]))
    graph._m = len(indices) // 2
    graph._maxdeg = None
    return graph


class GraphBuilder:
    """Accumulates an edge stream, then builds a :class:`CSRGraph` at once.

    The streaming half of the CSR story: generators push edges one at a
    time into two flat endpoint arrays (16 bytes per edge, no per-edge
    set or tuple survives), and :meth:`to_graph` runs the single bulk
    sort/dedup pass.  Duplicate edges are tolerated (collapsed at build
    time, matching ``Graph.add_edge`` returning ``False``); self-loops
    and out-of-range endpoints raise immediately, as they would on any
    backend.
    """

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        self.n = n
        self._us = array("q")
        self._vs = array("q")

    def add(self, u: int, v: int) -> None:
        """Stage edge ``{u, v}`` (duplicates collapse at build time)."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
        if u == v:
            raise ValueError(f"self-loops are not allowed: ({u}, {v})")
        self._us.append(u)
        self._vs.append(v)

    def extend(self, edges: Iterable[Edge]) -> None:
        """Stage every edge of a stream."""
        add = self.add
        for u, v in edges:
            add(u, v)

    def to_graph(self) -> "CSRGraph":
        """Build the graph; the builder may be reused afterwards."""
        return _assemble(self.n, *_build_arrays(self.n, self._us, self._vs))


def from_edge_stream(n: int, edges: Iterable[Edge]) -> "CSRGraph":
    """Build a :class:`CSRGraph` from an edge stream without materializing it."""
    builder = GraphBuilder(n)
    builder.extend(edges)
    return builder.to_graph()


class CSRGraph(Graph):
    """Undirected simple graph on ``range(n)`` with CSR adjacency."""

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        built = from_edge_stream(n, edges)
        self.__dict__.update(built.__dict__)

    @classmethod
    def from_rows(cls, n: int, rows: Iterable[Iterable[int]]) -> "CSRGraph":
        """Build from ``n`` neighbor rows, each sorted and duplicate-free.

        The rows are copied as they come — no per-edge staging, no sort —
        which is how another backend's adjacency (whose ``iter_neighbors``
        already enumerates in increasing order) converts to CSR.  The
        rows must describe a symmetric simple graph.
        """
        indptr = _zeros(n + 1)
        indices = array("q")
        for v, row in enumerate(rows):
            indices.extend(row)
            indptr[v + 1] = len(indices)
        return _assemble(n, indptr, indices)

    # -- row layout -------------------------------------------------------
    #
    # ``_indices[_indptr[v] : _indptr[v] + _deg[v]]`` is the live sorted
    # row of ``v``; removals leave slack between ``_deg[v]`` and the next
    # offset, which every row read skips.

    def _row_remove(self, u: int, v: int) -> None:
        start = self._indptr[u]
        d = self._deg[u]
        end = start + d
        i = bisect_left(self._indices, v, start, end)
        self._indices[i : end - 1] = self._indices[i + 1 : end]
        self._deg[u] = d - 1

    # -- construction -----------------------------------------------------

    def add_edge(self, u: int, v: int) -> bool:
        """Add edge ``{u, v}``; return False if it was already present.

        Rebuilds the arrays, O(n + m); no protocol grows a graph edge by
        edge.
        """
        if self.has_edge(u, v):
            return False
        self.__dict__.update(from_edge_stream(self.n, [(u, v), *self.edges()]).__dict__)
        return True

    def remove_edge(self, u: int, v: int) -> None:
        """Remove edge ``{u, v}``; raise KeyError if absent."""
        if not self.has_edge(u, v):
            raise KeyError(f"edge ({u}, {v}) not in graph")
        self._row_remove(u, v)
        self._row_remove(v, u)
        self._m -= 1
        self._maxdeg = None

    def copy(self) -> "CSRGraph":
        """An independent deep copy (three flat array copies)."""
        clone = CSRGraph.__new__(CSRGraph)
        clone.n = self.n
        clone._indptr = array("q", self._indptr)
        clone._indices = array("q", self._indices)
        clone._deg = array("q", self._deg)
        clone._m = self._m
        clone._maxdeg = self._maxdeg
        return clone

    # -- queries ----------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        """True if ``{u, v}`` is an edge (binary search in ``u``'s row)."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            return False
        start = self._indptr[u]
        end = start + self._deg[u]
        i = bisect_left(self._indices, v, start, end)
        return i < end and self._indices[i] == v

    def neighbors(self, v: int) -> set[int]:
        """The neighbor set of ``v`` (a fresh set)."""
        return set(self.iter_neighbors(v))

    def degree(self, v: int) -> int:
        """Degree of ``v``."""
        return self._deg[v]

    def degrees(self) -> list[int]:
        """Degree sequence indexed by vertex."""
        return list(self._deg)

    def max_degree(self) -> int:
        """Maximum degree Δ (0 for the empty graph); cached until mutated."""
        if self._maxdeg is None:
            self._maxdeg = max(self.degrees(), default=0)
        return self._maxdeg

    def edges(self) -> Iterator[Edge]:
        """Iterate edges in sorted canonical order (see the base contract)."""
        indptr, indices, deg = self._indptr, self._indices, self._deg
        for u in range(self.n):
            start = indptr[u]
            for i in range(start, start + deg[u]):
                w = indices[i]
                if w > u:
                    yield (u, w)

    def subgraph_edges(self, edges: Iterable[Edge]) -> "CSRGraph":
        """A CSR graph on the same vertex set containing only ``edges``."""
        return from_edge_stream(self.n, edges)

    def split_by_mask(self, mask: bytes) -> tuple["CSRGraph", "CSRGraph"]:
        """The subgraphs of the edges whose mask byte is 1 and 0.

        With numpy the upper entries ``(u, w)``, ``w > u``, of the rows are
        the edges in ``edges()`` order, so the mask selects each side's
        endpoint arrays in one vectorised pass and the regular builder
        turns them into CSR — byte-identical to :func:`from_edge_stream`.
        """
        np = _kernels._np
        # The vectorised pass reads the rows as one block, so removal slack
        # (never present on a partition's input graph) takes the generic path.
        if np is None or len(self._indices) != 2 * self._m:
            return super().split_by_mask(mask)
        n = self.n
        indptr = np.frombuffer(self._indptr, dtype=np.int64)
        dst = np.frombuffer(self._indices, dtype=np.int64)
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        upper = dst > src
        us, vs = src[upper], dst[upper]
        ones = np.frombuffer(mask, dtype=np.uint8).astype(bool)

        def side(keep):
            return _assemble(n, *_build_arrays(n, _from_numpy(us[keep]), _from_numpy(vs[keep])))

        return side(ones), side(~ones)

    def is_independent_set(self, vertices: Iterable[int]) -> bool:
        """True if no two of ``vertices`` are adjacent (row scans)."""
        vset = set(vertices)
        return all(not self.has_neighbor_in(v, vset) for v in vset)

    # -- backend-agnostic accessors ---------------------------------------

    def iter_neighbors(self, v: int) -> Iterator[int]:
        """Iterate the neighbors of ``v`` in increasing order."""
        start = self._indptr[v]
        return iter(self._indices[start : start + self._deg[v]])

    def neighbors_in(self, v: int, packed: frozenset) -> list[int]:
        """Neighbors of ``v`` inside a packed set, in increasing order."""
        start = self._indptr[v]
        row = self._indices[start : start + self._deg[v]]
        return [u for u in row if u in packed]

    def has_neighbor_in(self, v: int, packed: frozenset) -> bool:
        """Whether any neighbor of ``v`` lies in the packed set.

        A short-circuiting row scan: O(deg) membership probes against the
        packed hash set, never materializing a neighbor list.
        """
        indices = self._indices
        start = self._indptr[v]
        for i in range(start, start + self._deg[v]):
            if indices[i] in packed:
                return True
        return False

    def neighbor_colors(self, v: int, coloring: Mapping[int, int]) -> set[int]:
        """The colors that ``coloring`` assigns to neighbors of ``v``."""
        start = self._indptr[v]
        row = self._indices[start : start + self._deg[v]]
        return {coloring[u] for u in row if u in coloring}

    def confirmation_bits(
        self, awake: Iterable[int], chosen: Mapping[int, int]
    ) -> tuple[bool, ...]:
        """Backend-native confirmation sweep (``core.probes`` dispatches here).

        Instead of packing each color class into a set and probing with
        ``has_neighbor_in``, scan each awake vertex's index row once and
        compare colors through one awake-only dict — same booleans, no
        per-class pack over n-vertex collections.
        """
        indptr, indices, deg = self._indptr, self._indices, self._deg
        cmap = {v: chosen[v] for v in awake}
        get = cmap.get
        bits = []
        for v in awake:
            color = cmap[v]
            start = indptr[v]
            ok = True
            for i in range(start, start + deg[v]):
                if get(indices[i]) == color:
                    ok = False
                    break
            bits.append(ok)
        return tuple(bits)

    def induced_subgraph(self, vertices: Iterable[int]) -> "CSRGraph":
        """Same vertex range, keeping only edges inside ``vertices``.

        One filtered row copy per member vertex — already-sorted rows stay
        sorted, so no re-sort pass is needed.
        """
        vset = set(vertices)
        indptr, indices, deg = self._indptr, self._indices, self._deg
        new_indptr = _zeros(self.n + 1)
        new_indices = array("q")
        write = 0
        for v in range(self.n):
            new_indptr[v] = write
            if v in vset:
                start = indptr[v]
                for i in range(start, start + deg[v]):
                    u = indices[i]
                    if u in vset:
                        new_indices.append(u)
                        write += 1
        new_indptr[self.n] = write
        return _assemble(self.n, new_indptr, new_indices)

    def __repr__(self) -> str:
        return f"CSRGraph(n={self.n}, m={self._m}, max_degree={self.max_degree()})"


#: Registered graph backends, keyed by the names the engine and CLI use.
GRAPH_BACKENDS: dict[str, type[Graph]] = {"set": Graph, "csr": CSRGraph}


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
