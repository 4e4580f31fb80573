"""Graph generators for the protocols' workloads and hard instances.

Covers the families the experiments sweep over (random graphs, regular
graphs, bounded-degree structures) plus the paper's lower-bound
constructions: unions of `C4` bit gadgets (Section 2.3 / FM25) and the
star-pair instances underlying the ZEC game (Section 6.2).

Randomized generators accept either a plain :class:`random.Random` or a
:class:`repro.rand.Stream`.  The G(n, p) families are built on *edge
streams* (``*_edge_stream`` functions) that yield edges one at a time
without materializing the pair universe, fed straight into the
:class:`~repro.graphs.graph.Graph` constructor.  A ``random.Random``
source reproduces the historical draw sequence exactly (one coin per
pair / one shuffle); a ``Stream`` source takes the geometric-skip path
through :meth:`repro.rand.Stream.sample_indices`, so sparse instances
cost O(p·m) draws instead of O(n²).

The two hot workload families skip the per-edge tuples.  With numpy,
the social graph (:func:`configuration_model_graph` over
:func:`power_law_degree_sequence`) draws its degrees and its stub
shuffle in bulk from the ``Stream`` kernels, pairs the shuffled stub
array, drops self-pairs with a mask and hands the endpoint arrays to the
CSR build; it builds the same bytes, and consumes the same words, as its
scalar loop, which stays as the reference and the ``REPRO_NO_NUMPY=1``
path.  :func:`random_regular_graph` pairs its stubs over int edge keys
and builds the CSR from the accepted keys, with or without numpy.
"""

from __future__ import annotations

import random
from array import array
from collections.abc import Iterator, Sequence
from itertools import accumulate
from math import isfinite, isqrt

from ..rand import RandomSource, Stream, as_random
from ..rand import kernels as _kernels
from .graph import Edge, Graph

__all__ = [
    "barbell_of_stars",
    "c4_gadget_union",
    "caterpillar_graph",
    "complete_bipartite",
    "complete_graph",
    "configuration_model_edge_stream",
    "configuration_model_graph",
    "conflict_union_graph",
    "cycle_graph",
    "disjoint_union",
    "gnp_edge_stream",
    "gnp_random_graph",
    "gnp_with_max_degree",
    "gnp_with_max_degree_edge_stream",
    "grid_graph",
    "hypercube_graph",
    "path_graph",
    "power_law_degree_sequence",
    "random_bipartite_regular",
    "random_regular_graph",
    "star_graph",
    "zec_instance_graph",
]


def _unrank_pair(n: int, k: int) -> Edge:
    """The ``k``-th pair of the u-major upper-triangle order on ``C(n,2)``.

    Inverts the enumeration ``(0,1), (0,2), …, (n-2,n-1)`` in O(1) by
    counting pairs from the *end* (row ``u`` ends ``T(n-1-u)`` pairs
    before the total, a triangular number, so ``isqrt`` recovers the
    row).  This is what lets one flat ``sample_indices`` call drive the
    whole G(n, p) sweep without enumerating pairs.
    """
    r = n * (n - 1) // 2 - 1 - k
    j = (isqrt(8 * r + 1) - 1) // 2
    u = n - 2 - j
    s = r - j * (j + 1) // 2
    return u, n - 1 - s


def path_graph(n: int) -> Graph:
    """The path ``0 - 1 - ... - (n-1)``."""
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    """The cycle on ``n ≥ 3`` vertices."""
    if n < 3:
        raise ValueError(f"a cycle needs at least 3 vertices, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph(n, edges)


def star_graph(n: int) -> Graph:
    """The star with center 0 and ``n - 1`` leaves."""
    return Graph(n, ((0, i) for i in range(1, n)))


def complete_graph(n: int) -> Graph:
    """The complete graph ``K_n``."""
    return Graph(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def complete_bipartite(a: int, b: int) -> Graph:
    """``K_{a,b}`` with left part ``0..a-1`` and right part ``a..a+b-1``."""
    return Graph(a + b, ((u, a + v) for u in range(a) for v in range(b)))


def grid_graph(rows: int, cols: int) -> Graph:
    """The ``rows × cols`` grid (max degree 4)."""
    def vid(r: int, c: int) -> int:
        return r * cols + c

    edges: list[Edge] = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return Graph(rows * cols, edges)


def gnp_edge_stream(n: int, p: float, rng: RandomSource) -> Iterator[Edge]:
    """Stream the edges of ``G(n, p)`` in sorted canonical order.

    A ``Stream`` source samples the pair set with one geometric-skip
    sweep over the ``C(n,2)`` linear index (O(p·m) expected draws,
    kernel-batched); a ``random.Random`` source draws one coin per pair
    in the same u-major order, reproducing the historical tape exactly.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be a probability, got {p}")
    if isinstance(rng, Stream):
        return _gnp_skip_sweep(n, p, rng)
    return _gnp_coin_sweep(n, p, as_random(rng))


def _gnp_skip_sweep(n: int, p: float, stream: Stream) -> Iterator[Edge]:
    total = n * (n - 1) // 2
    return (_unrank_pair(n, k) for k in stream.sample_indices(total, p))


def _gnp_coin_sweep(n: int, p: float, rng: random.Random) -> Iterator[Edge]:
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                yield (u, v)


def gnp_random_graph(n: int, p: float, rng: RandomSource) -> Graph:
    """Erdős–Rényi ``G(n, p)``."""
    return Graph(n, gnp_edge_stream(n, p, rng))


def gnp_with_max_degree_edge_stream(
    n: int, p: float, max_degree: int, rng: RandomSource
) -> Iterator[Edge]:
    """Stream ``G(n, p)`` edges with a degree cap applied on the fly.

    The ``random.Random`` path keeps the historical semantics and tape:
    shuffle the full pair list, then one coin per pair with the cap
    checked after each successful coin.  The ``Stream`` path never
    materializes the pair universe — it geometric-skips the accepted
    pairs and applies the cap in canonical order (a different but
    equally valid member of the capped-G(n,p) family).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be a probability, got {p}")
    if isinstance(rng, Stream):
        return _gnp_capped_skip_sweep(n, p, max_degree, rng)
    return _gnp_capped_coin_sweep(n, p, max_degree, as_random(rng))


def _gnp_capped_skip_sweep(
    n: int, p: float, max_degree: int, stream: Stream
) -> Iterator[Edge]:
    total = n * (n - 1) // 2
    deg = [0] * n
    for k in stream.sample_indices(total, p):
        u, v = _unrank_pair(n, k)
        if deg[u] < max_degree and deg[v] < max_degree:
            deg[u] += 1
            deg[v] += 1
            yield (u, v)


def _gnp_capped_coin_sweep(
    n: int, p: float, max_degree: int, rng: random.Random
) -> Iterator[Edge]:
    order = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(order)
    deg = [0] * n
    for u, v in order:
        if rng.random() < p and deg[u] < max_degree and deg[v] < max_degree:
            deg[u] += 1
            deg[v] += 1
            yield (u, v)


def gnp_with_max_degree(n: int, p: float, max_degree: int, rng: RandomSource) -> Graph:
    """``G(n, p)`` with edges violating a degree cap rejected on the fly.

    Useful for sweeping ``n`` at a pinned ``Δ`` so round-complexity series
    isolate the ``log log n`` factor of Theorem 1.
    """
    return Graph(n, gnp_with_max_degree_edge_stream(n, p, max_degree, rng))


def _pair_round(
    stubs: list[int], n: int, edges: set[int], added: list[int]
) -> dict[int, int]:
    """One pairing round over shuffled stubs, on edge keys ``min·n + max``.

    Consecutive stubs pair up.  A new non-loop pair joins ``edges`` and
    ``added``; a rejected pair re-queues both stubs in ``pending``
    (vertex → count, in first-rejection order).
    """
    pending: dict[int, int] = {}
    paired = iter(stubs)
    for u, v in zip(paired, paired):
        key = u * n + v if u < v else v * n + u
        if u != v and key not in edges:
            edges.add(key)
            added.append(key)
        else:
            pending[u] = pending.get(u, 0) + 1
            pending[v] = pending.get(v, 0) + 1
    return pending


def random_regular_graph(n: int, d: int, rng: RandomSource, max_tries: int = 200) -> Graph:
    """A uniform-ish random ``d``-regular simple graph.

    Pairing model with stub re-queuing (the standard practical variant):
    stubs that would create loops or multi-edges are reshuffled instead of
    restarting the whole pairing, with a suitability check to detect dead
    ends.  Effective even for dense degrees.  The stubs are shuffled by
    the ``random.Random`` of :func:`~repro.rand.as_random`; the rounds
    run over int edge keys and the CSR is built from the accepted keys.
    """
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    if d < 0:
        raise ValueError(f"degree must be non-negative, got {d}")
    if n * d % 2 != 0:
        raise ValueError(f"n*d must be even, got n={n}, d={d}")
    if d >= n > 0:
        raise ValueError(f"degree {d} too large for {n} vertices")
    if n == 0 or d == 0:
        return Graph(n)
    rng = as_random(rng)

    def suitable(edges: set[int], pending: dict[int, int]) -> bool:
        """Can some two pending vertices still be joined by a new edge?"""
        nodes = list(pending)
        for i, u in enumerate(nodes):
            for v in nodes[i + 1 :]:
                if (u * n + v if u < v else v * n + u) not in edges:
                    return True
        return False

    def attempt():
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges: set[int] = set()
        added: list[int] = []
        pending = _pair_round(stubs, n, edges, added)
        while pending:
            if not suitable(edges, pending):
                return None
            stubs = [v for v, count in pending.items() for _ in range(count)]
            rng.shuffle(stubs)
            pending = _pair_round(stubs, n, edges, added)
        return array("q", [k // n for k in added]), array("q", [k % n for k in added])

    for _ in range(max_tries):
        endpoints = attempt()
        if endpoints is not None:
            return Graph._from_endpoints(n, *endpoints)
    raise RuntimeError(f"failed to sample a simple {d}-regular graph on {n} vertices")


def random_bipartite_regular(half: int, d: int, rng: RandomSource) -> Graph:
    """A bipartite ``d``-regular graph on ``2·half`` vertices.

    Built as a union of ``d`` shifted copies of one random permutation
    matching (a randomized circulant): distinct shifts guarantee the
    matchings are edge-disjoint, so the construction never needs retries.
    Bipartite regular graphs are class one, making them good stress inputs
    for the edge-coloring protocols.
    """
    if d > half:
        raise ValueError(f"degree {d} too large for part size {half}")
    rng = as_random(rng)
    perm = list(range(half))
    rng.shuffle(perm)
    shifts = rng.sample(range(half), d)
    edges: list[Edge] = [
        (u, half + (perm[u] + shift) % half) for shift in shifts for u in range(half)
    ]
    return Graph(2 * half, edges)


def conflict_union_graph(
    half: int, d_base: int, d_overlay: int, rng: RandomSource
) -> Graph:
    """The link-scheduling conflict fabric: two superposed regular layers.

    A bipartite ``d_base``-regular base fabric unioned with an
    independently drawn ``d_overlay``-regular overlay on the same parts —
    the near-regular conflict graph of ``examples/link_scheduling.py``,
    promoted to a generator so the scenario grid can sweep it.  Degrees
    land in ``[max(d_base, d_overlay), d_base + d_overlay]`` (layers may
    share edges), which is exactly the near-regular regime where the
    paper's 2Δ−1 palette is tight.
    """
    rng = as_random(rng)
    base = random_bipartite_regular(half, d_base, rng)
    overlay = random_bipartite_regular(half, d_overlay, rng)
    return base.union(overlay)


def hypercube_graph(dimension: int) -> Graph:
    """The ``dimension``-cube: ``2^d`` vertices, regular of degree ``d``.

    A structured, vertex-transitive family: every vertex is max-degree, so
    Fournier's independence hypothesis fails everywhere and the edge
    protocols must lean on their deferral machinery.
    """
    if dimension < 0:
        raise ValueError(f"dimension must be non-negative, got {dimension}")
    n = 1 << dimension
    edges = [
        (v, v ^ (1 << bit)) for v in range(n) for bit in range(dimension) if v < v ^ (1 << bit)
    ]
    return Graph(n, edges)


def caterpillar_graph(spine: int, legs_per_vertex: int) -> Graph:
    """A path of ``spine`` vertices, each carrying ``legs_per_vertex`` leaves.

    Trees are class one with an easy structure; caterpillars additionally
    exercise the high/low degree split of Algorithm 2 (spine vertices are
    heavy, leaves are trivially light).
    """
    if spine < 1:
        raise ValueError(f"spine must have at least one vertex, got {spine}")
    n = spine * (1 + legs_per_vertex)
    edges: list[Edge] = [(i, i + 1) for i in range(spine - 1)]
    next_leaf = spine
    for i in range(spine):
        for _ in range(legs_per_vertex):
            edges.append((i, next_leaf))
            next_leaf += 1
    return Graph(n, edges)


def power_law_degree_sequence(
    n: int,
    exponent: float,
    max_degree: int,
    rng: RandomSource,
) -> list[int]:
    """An even-sum degree sequence with ``P(d) ∝ d^{-exponent}``.

    Heavy-tailed degrees are the regime where Theorem 1's Case 1/Case 2
    analysis (low vs high initial degree, Section 2.1) genuinely diverges.
    """
    if not (isfinite(exponent) and exponent > 0):
        raise ValueError(f"exponent must be finite and positive, got {exponent}")
    if max_degree < 1 or max_degree >= n:
        raise ValueError(f"max_degree must be in [1, n), got {max_degree}")
    weights = [d ** (-exponent) for d in range(1, max_degree + 1)]
    if isinstance(rng, Stream):
        # Inverse-CDF draws on the stream directly (same scheme as
        # random.choices: bisect over cumulative weights, index clamped).
        degrees = [1 + i for i in rng.weighted_indices(n, list(accumulate(weights)))]
    else:
        # One call draws the same values, and leaves the same state, as one
        # call per vertex, without re-accumulating the weights each time.
        degrees = as_random(rng).choices(
            range(1, max_degree + 1), weights=weights, k=n
        )
    if sum(degrees) % 2:
        degrees[degrees.index(min(degrees))] += 1
    return degrees


def _check_degrees(degrees: Sequence[int]) -> None:
    n = len(degrees)
    if n and (min(degrees) < 0 or max(degrees) >= n):
        raise ValueError("degrees must lie in [0, n)")


def configuration_model_edge_stream(
    degrees: Sequence[int], rng: RandomSource
) -> Iterator[Edge]:
    """Stream the pairing-model edges for a target degree sequence.

    One shuffle of the stub list, then consecutive stubs pair up;
    self-pairs are dropped and duplicate pairs are emitted as-is (every
    graph builder collapses them, matching the historical has_edge
    rejection).  A ``Stream`` shuffles natively; a ``random.Random``
    reproduces the historical tape.
    """
    _check_degrees(degrees)
    return _configuration_pairing(degrees, rng)


def _shuffle_stubs(stubs, rng: RandomSource) -> None:
    """Shuffle in place: natively on a ``Stream``, else the historical tape."""
    (rng if isinstance(rng, Stream) else as_random(rng)).shuffle(stubs)


def _configuration_pairing(
    degrees: Sequence[int], rng: RandomSource
) -> Iterator[Edge]:
    stubs = [v for v, d in enumerate(degrees) for _ in range(d)]
    _shuffle_stubs(stubs, rng)
    paired = iter(stubs)
    for u, v in zip(paired, paired):
        if u != v:
            yield (u, v)


def configuration_model_graph(degrees: Sequence[int], rng: RandomSource) -> Graph:
    """A simple graph approximating a target degree sequence.

    Pairing-model with rejection of loops/multi-edges (rejected stubs are
    dropped, so realized degrees are ≤ targets — adequate for workload
    generation; exact realization is not needed by any experiment).
    With numpy the pairing is array work: the stubs come from
    ``np.repeat`` into an ``array('q')`` that is shuffled in place,
    self-pairs drop out through a mask and the endpoint arrays go
    straight to the CSR build.  The graph is the one
    :func:`configuration_model_edge_stream` builds.
    """
    n = len(degrees)
    np = _kernels._np
    if np is None:
        return Graph(n, configuration_model_edge_stream(degrees, rng))
    _check_degrees(degrees)
    counts = np.asarray(degrees, dtype=np.int64)
    stubs = array("q")
    stubs.frombytes(np.repeat(np.arange(n, dtype=np.int64), counts).tobytes())
    _shuffle_stubs(stubs, rng)
    pairs = np.frombuffer(stubs, dtype=np.int64)[: len(stubs) // 2 * 2].reshape(-1, 2)
    keep = pairs[:, 0] != pairs[:, 1]
    return Graph._from_endpoints(n, pairs[keep, 0], pairs[keep, 1])


def disjoint_union(graphs: list[Graph]) -> Graph:
    """The disjoint union, relabelling each component into a fresh block."""
    edges: list[Edge] = []
    offset = 0
    for g in graphs:
        edges.extend((offset + u, offset + v) for u, v in g.edges())
        offset += g.n
    return Graph(offset, edges)


def barbell_of_stars(k: int, leaves: int) -> Graph:
    """``k`` disjoint stars whose centers are joined in a path.

    A structured low-degree family exercising the deferral logic of
    Algorithm 2 (adjacent high-degree centers).
    """
    n = k * (leaves + 1)
    edges: list[Edge] = []
    for i in range(k):
        center = i * (leaves + 1)
        for j in range(1, leaves + 1):
            edges.append((center, center + j))
        if i + 1 < k:
            edges.append((center, (i + 1) * (leaves + 1)))
    return Graph(n, edges)


def c4_gadget_union(bits: Sequence[int]) -> Graph:
    """The FM25 lower-bound gadget graph encoding a bit string.

    For bit ``x_i`` a gadget on vertices ``(a_i, b_i, c_i, d_i)`` always has
    edges ``{a,b}`` and ``{c,d}``; if ``x_i = 0`` it adds ``{a,c},{b,d}``,
    if ``x_i = 1`` it adds ``{a,d},{b,c}``.  Each gadget is a ``C4``
    (max degree 2) and any proper 3-vertex-coloring identifies which of the
    two cycles is present (see :mod:`repro.lowerbound.learning_gadget`).
    """
    edges: list[Edge] = []
    for i, bit in enumerate(bits):
        if bit not in (0, 1):
            raise ValueError(f"bits must be 0/1, got {bit!r} at index {i}")
        a, b, c, d = 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3
        edges.append((a, b))
        edges.append((c, d))
        if bit == 0:
            edges.append((a, c))
            edges.append((b, d))
        else:
            edges.append((a, d))
            edges.append((b, c))
    return Graph(4 * len(bits), edges)


def zec_instance_graph(
    alice_spokes: tuple[int, int],
    bob_spokes: tuple[int, int],
) -> Graph:
    """The 9-vertex ZEC game graph (Section 6.2).

    Vertices ``0 = v_A``, ``1 = v_B``, ``2..8 = v_1..v_7``.  Alice holds the
    two edges ``{v_A, v_i}`` for her spoke indices; Bob holds ``{v_B, v_j}``
    for his.  Spoke indices are 1-based as in the paper (``1..7``).
    """
    for spokes in (alice_spokes, bob_spokes):
        i, j = spokes
        if not (1 <= i <= 7 and 1 <= j <= 7 and i != j):
            raise ValueError(f"spokes must be two distinct indices in 1..7, got {spokes}")
    edges = [(0, 1 + i) for i in alice_spokes] + [(1, 1 + j) for j in bob_spokes]
    return Graph(9, edges)
