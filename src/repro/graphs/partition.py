"""Edge partitions between Alice and Bob, with adversarial partitioners.

The model (Section 3.1): the vertex set, ``n`` and ``Δ`` are common
knowledge; the edge set is partitioned *adversarially* between the parties.
:class:`EdgePartition` captures one such split and provides each party's
local view (adjacency, degrees).  The partitioner zoo covers the regimes the
experiments ablate over — balanced random splits, fully lopsided splits, and
splits engineered to maximize cross-party coordination.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from functools import cached_property
from itertools import compress

from ..rand import RandomSource, as_random
from .graph import Edge, Graph, invert_mask

__all__ = [
    "EdgePartition",
    "PARTITIONERS",
    "partition_all_alice",
    "partition_all_bob",
    "partition_alternating",
    "partition_by_hash",
    "partition_crossing",
    "partition_degree_split",
    "partition_random",
]


class EdgePartition:
    """A two-party split of a graph's edges.

    Exposes, for each party, exactly the information the model grants them:
    their own edge set (and derived adjacency/degrees) plus the public
    parameters ``n`` and ``Δ`` of the *whole* graph.

    The split itself is :attr:`owner_mask`: immutable ``bytes``, one
    byte per edge in ``graph.edges()`` order, 1 for Alice and 0 for Bob.
    Everything else — the side graphs and the edge sets — is derived from
    it on first access and cached.
    """

    def __init__(self, graph: Graph, alice_edges: Iterable[Edge]) -> None:
        alice = {(u, v) if u < v else (v, u) for u, v in alice_edges}
        mask = bytes(map(alice.__contains__, graph.edges()))
        if mask.count(1) != len(alice):
            extra = sorted(alice - set(graph.edges()))[:3]
            raise ValueError(f"alice edges not in graph, e.g. {extra}")
        self.graph = graph
        self.owner_mask = mask

    @classmethod
    def from_mask(cls, graph: Graph, mask: bytes) -> "EdgePartition":
        """The partition giving Alice the edges whose mask byte is 1.

        The mask is copied to ``bytes`` (a ``bytes`` mask is kept as is),
        so later writes to a caller's ``bytearray`` cannot change the split.
        """
        mask = bytes(mask)
        if len(mask) != graph.m or mask.count(0) + mask.count(1) != len(mask):
            raise ValueError(f"need one 0/1 byte per edge ({graph.m}), got {len(mask)}")
        part = cls.__new__(cls)
        part.graph = graph
        part.owner_mask = mask
        return part

    @property
    def n(self) -> int:
        """Number of vertices (public knowledge)."""
        return self.graph.n

    @property
    def max_degree(self) -> int:
        """Δ of the whole graph (public knowledge)."""
        return self.graph.max_degree()

    @cached_property
    def _sides(self) -> tuple[Graph, Graph]:
        return self.graph.split_by_mask(self.owner_mask)

    @property
    def alice_graph(self) -> Graph:
        """Alice's local graph (built with Bob's on first access)."""
        return self._sides[0]

    @property
    def bob_graph(self) -> Graph:
        """Bob's local graph (built with Alice's on first access)."""
        return self._sides[1]

    @cached_property
    def alice_edges(self) -> frozenset[Edge]:
        """Alice's edges in canonical form."""
        return frozenset(compress(self.graph.edges(), self.owner_mask))

    @cached_property
    def bob_edges(self) -> frozenset[Edge]:
        """Bob's edges in canonical form."""
        return frozenset(compress(self.graph.edges(), invert_mask(self.owner_mask)))

    def side_graph(self, party: str) -> Graph:
        """The local graph of ``"alice"`` or ``"bob"``."""
        if party == "alice":
            return self.alice_graph
        if party == "bob":
            return self.bob_graph
        raise ValueError(f"unknown party {party!r}")

    def astype(self, backend: str) -> "EdgePartition":
        """This partition itself: ``"csr"`` names the one graph representation.

        Any other name raises ``ValueError``.
        """
        if backend != "csr":
            raise ValueError(f"unknown graph backend {backend!r}; the only one is 'csr'")
        return self

    def owner(self, u: int, v: int) -> str:
        """Which party holds edge ``{u, v}``; ``KeyError`` for a non-edge."""
        edge = (u, v) if u < v else (v, u)
        if edge in self.alice_edges:
            return "alice"
        if edge in self.bob_edges:
            return "bob"
        raise KeyError(f"edge {edge} not in graph")

    def __repr__(self) -> str:
        alice = self.owner_mask.count(1)
        return (
            f"EdgePartition(n={self.n}, alice={alice}, "
            f"bob={len(self.owner_mask) - alice})"
        )


def partition_random(graph: Graph, rng: RandomSource, p_alice: float = 0.5) -> EdgePartition:
    """Assign each edge to Alice independently with probability ``p_alice``.

    One draw per edge, in ``edges()`` order.
    """
    draw = as_random(rng).random
    mask = bytes([draw() < p_alice for _ in range(graph.m)])
    return EdgePartition.from_mask(graph, mask)


def partition_all_alice(graph: Graph, rng: RandomSource | None = None) -> EdgePartition:
    """Alice holds every edge (the FM25 lower-bound regime)."""
    return EdgePartition.from_mask(graph, b"\x01" * graph.m)


def partition_all_bob(graph: Graph, rng: RandomSource | None = None) -> EdgePartition:
    """Bob holds every edge."""
    return EdgePartition.from_mask(graph, bytes(graph.m))


def partition_alternating(graph: Graph, rng: RandomSource | None = None) -> EdgePartition:
    """Edges alternate Alice/Bob in canonical order (deterministic 50/50)."""
    mask = (b"\x01\x00" * ((graph.m + 1) // 2))[: graph.m]
    return EdgePartition.from_mask(graph, mask)


def partition_by_hash(graph: Graph, rng: RandomSource | None = None) -> EdgePartition:
    """Deterministic pseudo-random split keyed on the edge identity."""
    mask = bytes(
        (u * 0x9E3779B1 ^ v * 0x85EBCA77) & 1 for u, v in graph.edges()
    )
    return EdgePartition.from_mask(graph, mask)


def partition_degree_split(graph: Graph, rng: RandomSource | None = None) -> EdgePartition:
    """Each vertex's incident edges split as evenly as possible.

    Maximizes the number of vertices whose neighborhood straddles both
    parties — the regime in which Color-Sample genuinely needs interaction.
    """
    mask = bytearray(graph.m)
    alice_deg = [0] * graph.n
    bob_deg = [0] * graph.n
    for idx, (u, v) in enumerate(graph.edges()):
        if alice_deg[u] + alice_deg[v] <= bob_deg[u] + bob_deg[v]:
            mask[idx] = 1
            alice_deg[u] += 1
            alice_deg[v] += 1
        else:
            bob_deg[u] += 1
            bob_deg[v] += 1
    return EdgePartition.from_mask(graph, mask)


def partition_crossing(graph: Graph, rng: RandomSource) -> EdgePartition:
    """A random vertex bisection: crossing edges to Alice, internal to Bob.

    Produces highly correlated, structured views (Alice sees a bipartite-ish
    graph), stressing protocols whose analysis assumes nothing about the
    split.
    """
    rng = as_random(rng)
    side = [rng.random() < 0.5 for _ in range(graph.n)]
    mask = bytes(side[u] != side[v] for u, v in graph.edges())
    return EdgePartition.from_mask(graph, mask)


PARTITIONERS: dict[str, Callable[[Graph, RandomSource], EdgePartition]] = {
    "random": partition_random,
    "all_alice": partition_all_alice,
    "all_bob": partition_all_bob,
    "alternating": partition_alternating,
    "hash": partition_by_hash,
    "degree_split": partition_degree_split,
    "crossing": partition_crossing,
}
