"""The simple-graph type every protocol programs against.

Vertices are integers ``0..n-1``; edges are unordered pairs stored in
canonical ``(min, max)`` order.  The adjacency structure lives in two
flat ``array('q')`` buffers — ``indptr`` (row offsets, length ``n + 1``)
and ``indices`` (concatenated sorted neighbor lists, length ``2m``) —
the compressed-sparse-row layout.  Memory is O(n + m) words regardless
of density, which is what makes the million-vertex tier real: a sparse
n = 10⁶ instance fits in tens of megabytes.

When numpy is importable (and not disabled via ``REPRO_NO_NUMPY=1``),
bulk construction vectorizes the sort/dedup/offset pipeline; the
pure-Python fallback builds the same arrays with a counting sort.  Both
paths produce byte-identical buffers, and numpy scalars never escape —
storage is ``array('q')``, so every query returns plain Python ints.
The one exception is :meth:`Graph.gather_rows`, the Random-Color-Trial
row gather, which hands numpy callers int64 vectors.

The protocols build every graph in one constructor call and only remove
edges afterwards (the Theorem 2/3 surgery on copies): ``remove_edge``
shifts one row in place (O(deg)), leaving slack at the row's end, and
``add_edge``, which no protocol calls, rebuilds the arrays (O(n + m)).
Iteration orders are deterministic — neighbors enumerate in increasing
order and ``edges()`` in sorted canonical order — because partitioners
draw one public coin per edge while iterating.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import compress
from operator import sub

from ..rand import kernels as _kernels

__all__ = ["Edge", "Graph", "canonical_edge", "invert_mask"]

Edge = tuple[int, int]

_INVERT = bytes.maketrans(b"\x00\x01", b"\x01\x00")

#: Below this many directed entries the numpy build costs more than it saves.
_NUMPY_BUILD_MIN = 1024

#: The largest ``n`` whose edge keys ``u·n + v`` fit in int64.
_MAX_KEY_N = 3_037_000_499


def invert_mask(mask: bytes) -> bytes:
    """Swap the 0 and 1 bytes of an edge mask (see :meth:`Graph.split_by_mask`)."""
    return mask.translate(_INVERT)


def canonical_edge(u: int, v: int) -> Edge:
    """The canonical ``(min, max)`` form of an undirected edge."""
    if u == v:
        raise ValueError(f"self-loops are not allowed: ({u}, {v})")
    return (u, v) if u < v else (v, u)


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
    if np is not None and len(us) >= _NUMPY_BUILD_MIN and n <= _MAX_KEY_N:
        # One int64 key src·n + dst per directed entry: a single sort
        # orders the entries row-major (an order of magnitude faster than
        # a two-key lexsort), and equal neighbours become equal keys.
        head = np.frombuffer(us, dtype=np.int64)
        tail = np.frombuffer(vs, dtype=np.int64)
        keys = np.concatenate([head * n + tail, tail * n + head])
        keys.sort()
        keep = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        keys = keys[keep]
        src = keys // n
        dst = keys - src * n
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


class Graph:
    """Undirected simple graph on the vertex set ``range(n)``.

    ``edges`` may repeat an edge or list it in either orientation (the
    repeats collapse); a self-loop or an out-of-range endpoint raises
    ``ValueError``.
    """

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        us = array("q")
        vs = array("q")
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loops are not allowed: ({u}, {v})")
            us.append(u)
            vs.append(v)
        self._load(n, *_build_arrays(n, us, vs))

    @classmethod
    def _from_arrays(cls, n: int, indptr: array, indices: array) -> "Graph":
        """A graph over compact arrays (sorted rows, no slack)."""
        graph = cls.__new__(cls)
        graph._load(n, indptr, indices)
        return graph

    @classmethod
    def _from_endpoints(cls, n: int, us, vs) -> "Graph":
        """A graph over parallel endpoint arrays (see :func:`_build_arrays`).

        ``us``/``vs`` are ``array('q')`` or contiguous int64 numpy
        vectors whose pairs the caller has already checked: in range and
        no self-loops.  No per-edge tuple is made.
        """
        if not isinstance(us, array):
            us, vs = _from_numpy(us), _from_numpy(vs)
        return cls._from_arrays(n, *_build_arrays(n, us, vs))

    def _load(self, n: int, indptr: array, indices: array) -> None:
        self.n = n
        self._indptr = indptr
        self._indices = indices
        self._deg = array("q", map(sub, indptr[1:], indptr[:-1]))
        self._m = len(indices) // 2
        self._maxdeg: int | None = None

    # -- row layout -------------------------------------------------------
    #
    # ``_indices[_indptr[v] : _indptr[v] + _deg[v]]`` is the live sorted
    # row of ``v``; removals leave slack between ``_deg[v]`` and the next
    # offset, which every row read skips.

    def _row(self, v: int) -> array:
        start = self._indptr[v]
        return self._indices[start : start + self._deg[v]]

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
        self.__dict__.update(Graph(self.n, [(u, v), *self.edges()]).__dict__)
        return True

    def remove_edge(self, u: int, v: int) -> None:
        """Remove edge ``{u, v}``; raise KeyError if absent."""
        if not self.has_edge(u, v):
            raise KeyError(f"edge ({u}, {v}) not in graph")
        self._row_remove(u, v)
        self._row_remove(v, u)
        self._m -= 1
        self._maxdeg = None

    def copy(self) -> "Graph":
        """An independent deep copy (three flat array copies)."""
        clone = Graph.__new__(Graph)
        clone.n = self.n
        clone._indptr = array("q", self._indptr)
        clone._indices = array("q", self._indices)
        clone._deg = array("q", self._deg)
        clone._m = self._m
        clone._maxdeg = self._maxdeg
        return clone

    # -- queries ----------------------------------------------------------

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

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
        return set(self._row(v))

    def degree(self, v: int) -> int:
        """Degree of ``v``."""
        return self._deg[v]

    def degrees(self) -> list[int]:
        """Degree sequence indexed by vertex."""
        return list(self._deg)

    def max_degree(self) -> int:
        """Maximum degree Δ (0 for the empty graph); cached until mutated."""
        if self._maxdeg is None:
            self._maxdeg = max(self._deg, default=0)
        return self._maxdeg

    def edges(self) -> Iterator[Edge]:
        """Iterate edges in sorted canonical order.

        Partitioners draw one public coin per edge while iterating, so
        this order is what makes a partition reproducible.
        """
        indptr, indices, deg = self._indptr, self._indices, self._deg
        for u in range(self.n):
            start = indptr[u]
            for i in range(start, start + deg[u]):
                w = indices[i]
                if w > u:
                    yield (u, w)

    def edge_list(self) -> list[Edge]:
        """All edges as a sorted list."""
        return list(self.edges())

    def vertices(self) -> range:
        """The vertex set."""
        return range(self.n)

    def subgraph_edges(self, edges: Iterable[Edge]) -> "Graph":
        """A graph on the same vertex set containing only ``edges``."""
        return Graph(self.n, edges)

    def split_by_mask(self, mask: bytes) -> tuple["Graph", "Graph"]:
        """The subgraphs of the edges whose mask byte is 1 and 0.

        ``mask`` holds one 0/1 byte per edge, in :meth:`edges` order.
        With numpy the upper entries ``(u, w)``, ``w > u``, of the rows
        are the edges in that order, so the mask selects each side's
        endpoint arrays in one vectorised pass — byte-identical to the
        edge-by-edge build.
        """
        np = _kernels._np
        # The vectorised pass reads the rows as one block, so removal slack
        # (never present on a partition's input graph) takes the edge path.
        if np is None or len(self._indices) != 2 * self._m:
            return (
                self.subgraph_edges(compress(self.edges(), mask)),
                self.subgraph_edges(compress(self.edges(), invert_mask(mask))),
            )
        n = self.n
        indptr = np.frombuffer(self._indptr, dtype=np.int64)
        dst = np.frombuffer(self._indices, dtype=np.int64)
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        upper = dst > src
        us, vs = src[upper], dst[upper]
        ones = np.frombuffer(mask, dtype=np.uint8).astype(bool)
        return (
            Graph._from_endpoints(n, us[ones], vs[ones]),
            Graph._from_endpoints(n, us[~ones], vs[~ones]),
        )

    def union(self, other: "Graph") -> "Graph":
        """Edge union of two graphs on the same vertex set."""
        if other.n != self.n:
            raise ValueError(f"vertex-set mismatch: {self.n} != {other.n}")
        return Graph(self.n, [*self.edges(), *other.edges()])

    def is_independent_set(self, vertices: Iterable[int]) -> bool:
        """True if no two of ``vertices`` are adjacent (row scans)."""
        vset = set(vertices)
        return all(not self.has_neighbor_in(v, vset) for v in vset)

    # -- hot-path accessors -----------------------------------------------
    #
    # The protocols' inner loops call these row scans instead of
    # materializing ``neighbors()`` sets.

    def iter_neighbors(self, v: int) -> Iterator[int]:
        """Iterate the neighbors of ``v`` in increasing order."""
        return iter(self._row(v))

    def neighbors_in(self, v: int, members: frozenset[int] | set[int]) -> list[int]:
        """Neighbors of ``v`` inside the set ``members``, in increasing order."""
        return [u for u in self._row(v) if u in members]

    def has_neighbor_in(self, v: int, members: frozenset[int] | set[int]) -> bool:
        """Whether any neighbor of ``v`` lies in the set ``members``.

        A short-circuiting row scan: O(deg) membership probes, never
        materializing a neighbor list.
        """
        indices = self._indices
        start = self._indptr[v]
        for i in range(start, start + self._deg[v]):
            if indices[i] in members:
                return True
        return False

    def neighbor_colors(self, v: int, coloring: Mapping[int, int]) -> set[int]:
        """The colors that ``coloring`` assigns to neighbors of ``v``."""
        return {coloring[u] for u in self._row(v) if u in coloring}

    def gather_rows(self, vertices: Sequence[int]):
        """The live rows of ``vertices``, concatenated: ``(offsets, ids)``.

        Row ``i`` (the neighbors of ``vertices[i]``, increasing) is
        ``ids[offsets[i] : offsets[i + 1]]``; ``offsets`` has one more
        entry than ``vertices`` and starts at 0.  Removal slack is
        skipped.  With numpy both are int64 vectors, built in one pass
        of array indexing; the pure path returns ``array('q')`` buffers
        holding the same values.
        """
        np = _kernels._np
        if np is not None:
            picked = np.asarray(vertices, dtype=np.int64)
            lengths = np.frombuffer(self._deg, dtype=np.int64)[picked]
            offsets = np.zeros(picked.size + 1, dtype=np.int64)
            np.cumsum(lengths, out=offsets[1:])
            # Entry j of row i sits at indptr[v_i] + (j - offsets[i]).
            shift = np.frombuffer(self._indptr, dtype=np.int64)[picked] - offsets[:-1]
            positions = np.arange(offsets[-1], dtype=np.int64)
            positions += np.repeat(shift, lengths)
            return offsets, np.frombuffer(self._indices, dtype=np.int64)[positions]
        indptr, indices, deg = self._indptr, self._indices, self._deg
        offsets = _zeros(len(vertices) + 1)
        ids = array("q")
        for i, v in enumerate(vertices, 1):
            start = indptr[v]
            ids += indices[start : start + deg[v]]
            offsets[i] = len(ids)
        return offsets, ids

    def induced_subgraph(self, vertices: Iterable[int]) -> "Graph":
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
        return Graph._from_arrays(self.n, new_indptr, new_indices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self.n != other.n or self.m != other.m:
            return False
        return all(self._row(v) == other._row(v) for v in range(self.n))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._m}, max_degree={self.max_degree()})"
