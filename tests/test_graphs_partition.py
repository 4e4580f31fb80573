"""Tests for edge partitions and the partitioner zoo."""

from __future__ import annotations

import hashlib
import random
from contextlib import nullcontext

import pytest

from repro.graphs import (
    PARTITIONERS,
    EdgePartition,
    Graph,
    complete_graph,
    gnp_random_graph,
    partition_all_alice,
    partition_all_bob,
    partition_alternating,
    partition_crossing,
    partition_degree_split,
    partition_random,
    path_graph,
    random_regular_graph,
)
from repro.rand import kernels

#: Partition sources: the graph as built, and a copy built with extra edges
#: and then stripped of them, so its rows carry ``remove_edge`` slack when
#: the partitioner enumerates them.
SOURCES = ("csr", "csr-slack")

#: sha256 prefixes of ``repr(sorted(alice_edges))`` for every partitioner on
#: ``random_regular_graph(200, 8, Random(7))`` with ``Random(11)``, as the
#: eager edge-set construction computed them.  m = 800, so the CSR split
#: selects with numpy whenever kernels are on (the sides are small enough
#: to build on the pure path either way).
EAGER_ALICE_DIGESTS = {
    "random": "90681ea4938626d5",
    "all_alice": "bf72fc7daa2c6fc8",
    "all_bob": "4f53cda18c2baa0c",
    "alternating": "f06a9ea3d22686ca",
    "hash": "e13592ee5a619568",
    "degree_split": "d4f385f2d0483243",
    "crossing": "bec1f25605e62f23",
}


@pytest.fixture(scope="module")
def regular():
    return random_regular_graph(200, 8, random.Random(7))


@pytest.fixture(params=["kernels", "pure"])
def kernel_mode(request):
    with kernels.disabled() if request.param == "pure" else nullcontext():
        yield request.param


def _digest(edges) -> str:
    return hashlib.sha256(repr(sorted(edges)).encode()).hexdigest()[:16]


def _on(graph, source):
    """``graph`` in the row layout a partition ``source`` names."""
    if source == "csr":
        return graph
    extra = [(u, v) for u in range(graph.n) for v in (u + 1, u + 3) if v < graph.n]
    extra = [e for e in extra if not graph.has_edge(*e)]
    slack = Graph(graph.n, [*graph.edges(), *extra])
    for u, v in extra:
        slack.remove_edge(u, v)
    assert len(slack._indices) == 2 * (slack.m + len(extra))
    assert list(slack.edges()) == list(graph.edges())
    return slack


def _assert_csr_identical(graph, edges):
    reference = Graph(graph.n, sorted(edges))
    assert graph._indptr.tobytes() == reference._indptr.tobytes()
    assert graph._indices.tobytes() == reference._indices.tobytes()
    assert list(graph._deg) == list(reference._deg)
    assert graph.m == reference.m


class TestEdgePartitionInvariants:
    def test_edges_partitioned_exactly(self, rng):
        g = gnp_random_graph(25, 0.3, rng)
        part = partition_random(g, rng)
        assert part.alice_edges | part.bob_edges == set(g.edges())
        assert not (part.alice_edges & part.bob_edges)

    def test_side_graphs_match_edge_sets(self, rng):
        g = gnp_random_graph(25, 0.3, rng)
        part = partition_random(g, rng)
        assert set(part.alice_graph.edges()) == part.alice_edges
        assert set(part.bob_graph.edges()) == part.bob_edges

    def test_local_degrees_sum_to_global(self, rng):
        g = gnp_random_graph(25, 0.4, rng)
        part = partition_random(g, rng)
        for v in g.vertices():
            assert (
                part.alice_graph.degree(v) + part.bob_graph.degree(v)
                == g.degree(v)
            )

    def test_owner_lookup(self, rng):
        g = gnp_random_graph(8, 0.5, rng)
        part = partition_random(g, rng)
        for u, v in g.edges():
            owner = part.owner(u, v)
            assert ((u, v) in part.alice_edges) == (owner == "alice")

    def test_owner_rejects_non_edge(self, rng):
        g = gnp_random_graph(8, 0.0, rng)
        g.add_edge(0, 1)
        part = partition_all_alice(g)
        with pytest.raises(KeyError):
            part.owner(2, 3)
        with pytest.raises(KeyError):
            part.owner(2, 2)

    def test_rejects_foreign_edges(self):
        g = complete_graph(4)
        with pytest.raises(ValueError):
            EdgePartition(gnp_random_graph(4, 0.0, random.Random(0)), [(0, 1)])

    def test_side_graph_accessor(self, rng):
        g = complete_graph(5)
        part = partition_random(g, rng)
        assert part.side_graph("alice") is part.alice_graph
        assert part.side_graph("bob") is part.bob_graph
        with pytest.raises(ValueError):
            part.side_graph("carol")

    def test_public_parameters(self, rng):
        g = complete_graph(6)
        part = partition_random(g, rng)
        assert part.n == 6
        assert part.max_degree == 5


class TestPartitioners:
    def test_all_alice_and_all_bob(self, rng):
        g = complete_graph(5)
        assert len(partition_all_alice(g).bob_edges) == 0
        assert len(partition_all_bob(g).alice_edges) == 0

    def test_alternating_is_balanced(self):
        g = complete_graph(6)
        part = partition_alternating(g)
        assert abs(len(part.alice_edges) - len(part.bob_edges)) <= 1

    def test_degree_split_balances_every_vertex(self, rng):
        g = complete_graph(9)
        part = partition_degree_split(g)
        for v in g.vertices():
            assert abs(part.alice_graph.degree(v) - part.bob_graph.degree(v)) <= 2

    def test_crossing_gives_alice_bipartite_view(self, rng):
        g = gnp_random_graph(30, 0.3, rng)
        part = partition_crossing(g, rng)
        # Alice's subgraph is bipartite by construction: 2-colorable check
        # via BFS.
        color = {}
        for start in range(30):
            if start in color or part.alice_graph.degree(start) == 0:
                continue
            color[start] = 0
            stack = [start]
            while stack:
                u = stack.pop()
                for w in part.alice_graph.neighbors(u):
                    if w not in color:
                        color[w] = 1 - color[u]
                        stack.append(w)
                    else:
                        assert color[w] != color[u]

    def test_registry_covers_all_partitioners(self, rng):
        g = gnp_random_graph(15, 0.4, rng)
        for name, factory in PARTITIONERS.items():
            part = factory(g, rng)
            assert part.alice_edges | part.bob_edges == set(g.edges()), name


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("name", sorted(PARTITIONERS))
class TestMaskParity:
    """The owner mask reproduces the eager edge-set construction."""

    def test_edge_sets_match_eager_construction(self, regular, name, source,
                                                kernel_mode):
        graph = _on(regular, source)
        part = PARTITIONERS[name](graph, random.Random(11))
        assert _digest(part.alice_edges) == EAGER_ALICE_DIGESTS[name]
        assert part.bob_edges == frozenset(regular.edges()) - part.alice_edges
        assert len(part.owner_mask) == regular.m
        assert set(part.alice_graph.edges()) == part.alice_edges
        assert set(part.bob_graph.edges()) == part.bob_edges

    def test_csr_sides_match_edge_stream(self, regular, name, source, kernel_mode):
        part = PARTITIONERS[name](_on(regular, source), random.Random(11))
        _assert_csr_identical(part.alice_graph, part.alice_edges)
        _assert_csr_identical(part.bob_graph, part.bob_edges)

    def test_split_round_trips_through_both_constructors(self, regular, name, source,
                                                         kernel_mode):
        """The owner mask and Alice's edge list each rebuild the same split."""
        graph = _on(regular, source)
        part = PARTITIONERS[name](graph, random.Random(11))
        for rebuilt in (
            EdgePartition.from_mask(graph, part.owner_mask),
            EdgePartition(graph, sorted(part.alice_edges)),
        ):
            assert rebuilt.owner_mask == part.owner_mask
            assert rebuilt.alice_edges == part.alice_edges
            assert rebuilt.bob_edges == part.bob_edges
            assert rebuilt.alice_graph == part.alice_graph
            assert rebuilt.bob_graph == part.bob_graph


@pytest.mark.parametrize("source", SOURCES)
class TestConstructor:
    def test_dedups_reversed_and_duplicate_tuples(self, source):
        g = _on(complete_graph(4), source)
        part = EdgePartition(g, [(1, 0), (0, 1), (0, 1), (3, 2)])
        assert part.alice_edges == {(0, 1), (2, 3)}
        assert part.bob_edges == {(0, 2), (0, 3), (1, 2), (1, 3)}
        assert part.owner(1, 0) == "alice" and part.owner(3, 1) == "bob"

    @pytest.mark.parametrize("foreign", [(0, 3), (3, 0), (2, 2)])
    def test_rejects_foreign_edges(self, source, foreign):
        g = _on(path_graph(4), source)
        with pytest.raises(ValueError, match="not in graph"):
            EdgePartition(g, [(0, 1), foreign])

    def test_from_mask_rejects_malformed_masks(self, source):
        g = _on(complete_graph(4), source)
        with pytest.raises(ValueError):
            EdgePartition.from_mask(g, bytearray(5))
        with pytest.raises(ValueError):
            EdgePartition.from_mask(g, bytearray([0, 1, 2, 0, 1, 0]))

    def test_mask_is_immutable_and_owned(self, source):
        g = _on(complete_graph(4), source)
        mask = bytearray([1, 0, 1, 0, 1, 0])
        part = EdgePartition.from_mask(g, mask)
        mask[0] = 0
        assert isinstance(part.owner_mask, bytes)
        assert part.owner(0, 1) == "alice"

    def test_astype_csr_is_the_partition_itself(self, source):
        part = partition_alternating(_on(complete_graph(4), source))
        assert part.astype("csr") is part

    @pytest.mark.parametrize("name", ["set", "bitset", "both"])
    def test_astype_rejects_every_other_backend(self, source, name):
        part = partition_alternating(_on(complete_graph(4), source))
        with pytest.raises(ValueError, match="the only one is 'csr'"):
            part.astype(name)


class TestLazySides:
    def test_sides_are_built_on_first_use(self, regular):
        part = partition_random(regular, random.Random(3))
        assert part.astype("csr") is part
        assert "_sides" not in part.__dict__
        assert part.side_graph("alice") is part.alice_graph
        assert part.side_graph("bob") is part.bob_graph
        assert "_sides" in part.__dict__

    @pytest.mark.usefixtures("kernel_mode")
    def test_csr_split_large_sides_match_edge_stream(self):
        # m = 2400: both sides pass the builder's numpy threshold.
        graph = random_regular_graph(600, 8, random.Random(2))
        for factory in (partition_random, partition_all_alice):
            part = factory(graph, random.Random(4))
            _assert_csr_identical(part.alice_graph, part.alice_edges)
            _assert_csr_identical(part.bob_graph, part.bob_edges)

    @pytest.mark.usefixtures("kernel_mode")
    def test_csr_split_after_mutations(self, regular):
        graph = regular.copy()
        for u in range(0, 40, 2):
            if not graph.has_edge(u, u + 101):
                graph.add_edge(u, u + 101)
        removed = list(graph.edges())[::7]
        for u, v in removed:
            graph.remove_edge(u, v)
        part = partition_random(graph, random.Random(5))
        _assert_csr_identical(part.alice_graph, part.alice_edges)
        _assert_csr_identical(part.bob_graph, part.bob_edges)
        assert part.alice_edges | part.bob_edges == set(graph.edges())
