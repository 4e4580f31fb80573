"""Bulk workload generation: numpy on equals the pure loops, bit for bit.

The social family draws its degrees with ``Stream.weighted_indices`` and
pairs its stubs with ``Stream.shuffle``; with numpy both take their words
from one kernel call, and ``configuration_model_graph`` and
``random_regular_graph`` build the CSR from endpoint arrays instead of
edge tuples.  These tests pin, on sizes on both sides of every size
gate, that the values, the CSR arrays and the words consumed
(``stream.counter``, or the ``random.Random`` state) are those of
``kernels.disabled()``.  A test-side copy of the tuple-based pairing
loop checks the regular graphs against the historical algorithm, and
sha256 digests pin the benchmark's workload graphs.
"""

from __future__ import annotations

import hashlib
import random
import sys
from array import array
from itertools import accumulate

import pytest

from repro.engine.runner import _cached_workload
from repro.engine.scenarios import Scenario
from repro.graphs import (
    Graph,
    configuration_model_edge_stream,
    configuration_model_graph,
    power_law_degree_sequence,
    random_regular_graph,
)
from repro.graphs.graph import _NUMPY_BUILD_MIN
from repro.rand import Stream, kernels

MIN = kernels.MIN_BATCH
CHUNK = kernels.SHUFFLE_CHUNK


def _stream(*labels) -> Stream:
    return Stream.from_seed(2024, "bulk-generation", *labels)


def _csr(graph: Graph) -> tuple[int, bytes, bytes]:
    return graph.n, graph._indptr.tobytes(), graph._indices.tobytes()


def _both(fn):
    """``fn()`` with the kernels live and under ``kernels.disabled()``."""
    on = fn()
    with kernels.disabled():
        off = fn()
    return on, off


# -- Stream.shuffle / shuffled ------------------------------------------------


@pytest.mark.parametrize(
    "size", [0, 1, 2, MIN - 1, MIN, MIN + 1, 3000, CHUNK, CHUNK + 1, CHUNK + 77]
)
def test_shuffled_kernel_matches_pure_loop(size):
    def draw():
        stream = _stream("shuffled", size)
        return stream.shuffled(range(size)), stream.counter

    (on, used_on), (off, used_off) = _both(draw)
    assert on == off
    assert used_on == used_off == max(size - 1, 0)
    assert sorted(on) == list(range(size))


@pytest.mark.parametrize("size", [MIN - 1, MIN, 5000])
def test_shuffle_in_place_matches_shuffled(size):
    """``shuffle`` on an ``array('q')`` moves items as ``shuffled`` does."""
    items = [7 * i % 1009 for i in range(size)]

    def draw():
        stream = _stream("in-place")
        out = array("q", items)
        stream.shuffle(out)
        return out.tolist(), stream.counter

    (on, used_on), (off, used_off) = _both(draw)
    assert on == off == _stream("in-place").shuffled(items)
    assert used_on == used_off


def test_shuffled_continues_the_stream():
    """Draws after a shuffle see the same counter on both paths."""

    def draw():
        stream = _stream("continue")
        stream.next64()
        head = stream.shuffled(range(500))
        return head, stream.next64()

    on, off = _both(draw)
    assert on == off


# -- Stream.weighted_indices and the degree draws -----------------------------


@pytest.mark.parametrize("k", [0, 1, MIN - 1, MIN, 4000])
@pytest.mark.parametrize(
    "weights", [[1.0], [3.0, 1.0, 0.5], [0.0, 2.0, 0.0, 1.0, 0.0]]
)
def test_weighted_indices_kernel_matches_pure_loop(k, weights):
    cum = list(accumulate(weights))

    def draw():
        stream = _stream("weighted", k, len(weights))
        return stream.weighted_indices(k, cum), stream.counter

    (on, used_on), (off, used_off) = _both(draw)
    assert on == off
    assert used_on == used_off == k
    assert all(0 <= i < len(weights) and weights[i] > 0 for i in on)


def test_weighted_indices_follow_random_choices():
    """Each draw is ``random.choices``' inverse-CDF step on one word."""
    weights = [d ** -2.3 for d in range(1, 9)]
    cum = list(accumulate(weights))
    stream = _stream("choices")
    drawn = stream.weighted_indices(300, cum)
    replay = _stream("choices")
    expected = []
    for _ in range(300):
        u = replay.random()
        expected.append(
            next((i for i, c in enumerate(cum) if c > u * cum[-1]), len(cum) - 1)
        )
    assert drawn == expected


@pytest.mark.parametrize("n", [40, MIN - 1, MIN, 5000])
def test_power_law_degrees_kernel_matches_pure_loop(n):
    def draw():
        stream = _stream("degrees", n)
        return power_law_degree_sequence(n, 2.3, 16, stream), stream.counter

    (on, used_on), (off, used_off) = _both(draw)
    assert on == off
    assert used_on == used_off == n
    assert sum(on) % 2 == 0


@pytest.mark.parametrize("exponent", [float("nan"), float("inf"), 0, -1.5])
@pytest.mark.parametrize("source", ["stream", "random"])
def test_power_law_rejects_exponents_that_are_not_finite_and_positive(
    exponent, source
):
    rng = _stream("bad") if source == "stream" else random.Random(3)
    with pytest.raises(ValueError, match="finite and positive") as info:
        power_law_degree_sequence(6, exponent, 3, rng)
    assert str(exponent) in str(info.value)


# -- configuration_model_graph ------------------------------------------------


def _power_law_degrees(n: int, max_degree: int) -> list[int]:
    return power_law_degree_sequence(n, 2.3, max_degree, _stream("cm-degrees", n))


#: Degree sequences below the shuffle gate, between it and the CSR build
#: gate, and above both; an odd degree sum (the last stub stays unpaired),
#: isolated vertices, no stubs at all, and no vertices.
CM_DEGREES = {
    "tiny": [2, 1, 1, 3, 1, 2],
    "below-shuffle-gate": _power_law_degrees(40, 6),
    "below-build-gate": _power_law_degrees(300, 12),
    "above-both": _power_law_degrees(3000, 40),
    "odd-sum": [3, 2, 2, 1, 1, 2, 0, 4] * 25,
    "isolated": [0, 0, 2, 2, 0, 2, 2, 0] * 40,
    "no-stubs": [0] * 10,
    "empty": [],
}


@pytest.mark.parametrize("name", sorted(CM_DEGREES))
@pytest.mark.parametrize("source", ["stream", "random"])
def test_configuration_model_bulk_matches_edge_stream(name, source):
    degrees = CM_DEGREES[name]

    def build():
        rng = _stream("pairing", name) if source == "stream" else random.Random(5)
        graph = configuration_model_graph(degrees, rng)
        state = rng.counter if source == "stream" else rng.getstate()
        return _csr(graph), state

    (on, state_on), (off, state_off) = _both(build)
    assert on == off
    assert state_on == state_off
    rng = _stream("pairing", name) if source == "stream" else random.Random(5)
    reference = Graph(len(degrees), configuration_model_edge_stream(degrees, rng))
    assert on == _csr(reference)


def test_configuration_model_gates_are_crossed():
    """The cases above do reach both paths of each size gate."""
    stubs = {name: sum(d) for name, d in CM_DEGREES.items()}
    assert min(stubs.values()) < MIN <= max(stubs.values())
    assert stubs["below-build-gate"] // 2 < _NUMPY_BUILD_MIN
    assert stubs["above-both"] // 2 >= _NUMPY_BUILD_MIN
    assert sum(CM_DEGREES["odd-sum"]) % 2 == 1


@pytest.mark.parametrize("bad", [[1, -1, 0], [3, 1, 1]])
def test_configuration_model_rejects_out_of_range_degrees(bad):
    for build in (configuration_model_graph, configuration_model_edge_stream):
        with pytest.raises(ValueError, match=r"\[0, n\)"):
            build(bad, _stream("bad"))
        with kernels.disabled(), pytest.raises(ValueError, match=r"\[0, n\)"):
            build(bad, _stream("bad"))


# -- random_regular_graph -----------------------------------------------------


def _reference_regular(n: int, d: int, rng: random.Random, max_tries: int = 200):
    """The historical pairing loop, on ``(min, max)`` edge tuples."""

    def suitable(edges, pending):
        nodes = [v for v, count in pending.items() if count]
        for i, u in enumerate(nodes):
            for v in nodes[i + 1 :]:
                if (min(u, v), max(u, v)) not in edges:
                    return True
        return not nodes

    def attempt():
        edges = set()
        stubs = [v for v in range(n) for _ in range(d)]
        while stubs:
            pending = {}
            rng.shuffle(stubs)
            paired = iter(stubs)
            for u, v in zip(paired, paired):
                if u != v and (min(u, v), max(u, v)) not in edges:
                    edges.add((min(u, v), max(u, v)))
                else:
                    pending[u] = pending.get(u, 0) + 1
                    pending[v] = pending.get(v, 0) + 1
            if not suitable(edges, pending):
                return None
            stubs = [v for v, count in pending.items() for _ in range(count)]
        return edges

    for _ in range(max_tries):
        edges = attempt()
        if edges is not None:
            return Graph(n, edges)
    raise RuntimeError("no graph")


class _CountingRandom(random.Random):
    """A ``random.Random`` that counts its ``shuffle`` calls."""

    shuffles = 0

    def shuffle(self, x):
        self.shuffles += 1
        super().shuffle(x)


#: Small cases below the numpy CSR-build gate (n·d/2 < 1024 edges) and
#: above it, a dense case that needs several pending rounds, and the
#: vertex-d1lc shape.
REGULAR = [(20, 6), (10, 3), (64, 8), (40, 30), (300, 16), (1000, 5)]


@pytest.mark.parametrize("n,d", REGULAR)
@pytest.mark.parametrize("seed", [1, 17])
def test_regular_bulk_matches_pure_and_reference(n, d, seed):
    def build():
        rng = _CountingRandom(seed)
        graph = random_regular_graph(n, d, rng)
        return _csr(graph), rng.getstate(), rng.shuffles

    (on, state_on, shuffles), (off, state_off, _) = _both(build)
    assert on == off
    assert state_on == state_off
    reference_rng = random.Random(seed)
    assert on == _csr(_reference_regular(n, d, reference_rng))
    assert state_on == reference_rng.getstate()
    graph = random_regular_graph(n, d, random.Random(seed))
    assert graph.degrees() == [d] * n
    if (n, d) == (40, 30):
        assert shuffles > 3  # several pending rounds (or restarts)


def test_regular_build_gate_is_crossed():
    edges = [n * d // 2 for n, d in REGULAR]
    assert min(edges) < _NUMPY_BUILD_MIN <= max(edges)


@pytest.mark.parametrize("n", [1, 5, 2000])
def test_regular_zero_degree_is_empty_and_draws_nothing(n):
    def build():
        rng = random.Random(4)
        return _csr(random_regular_graph(n, 0, rng)), rng.getstate()

    (on, state_on), (off, state_off) = _both(build)
    assert on == off == _csr(Graph(n))
    assert state_on == state_off == random.Random(4).getstate()


def test_regular_stream_source_leaves_the_stream_untouched():
    def build():
        stream = _stream("regular")
        return _csr(random_regular_graph(200, 10, stream)), stream.counter

    (on, used_on), (off, used_off) = _both(build)
    assert on == off
    assert used_on == used_off == 0


def test_regular_rejects_negative_degree():
    with pytest.raises(ValueError, match="degree must be non-negative, got -2"):
        random_regular_graph(4, -2, random.Random(0))


def test_regular_rejects_negative_vertex_count():
    with pytest.raises(ValueError, match="vertex count must be non-negative, got -2"):
        random_regular_graph(-2, 4, random.Random(0))


def test_regular_keeps_its_other_errors():
    with pytest.raises(ValueError, match="must be even"):
        random_regular_graph(5, 3, random.Random(0))
    with pytest.raises(ValueError, match="too large"):
        random_regular_graph(4, 4, random.Random(0))


# -- the benchmark's workload graphs ------------------------------------------

_SOCIAL = (("exponent", 2.3), ("max_degree", 64), ("n", 20_000))

_SOCIAL_GRAPH = (
    "social", _SOCIAL, 359590353, 20343,
    "cd2d912958a6f0e5eec6a6eb683b22b7597785a4a4b7f26dfdf8bedf6c93ea6f",
)

#: The graphs of perfbench's four workloads at their default seeds:
#: ``(family, params, seed, m, sha256(indptr bytes + indices bytes))``.
#: vertex-social and edge-social share one graph.
WORKLOAD_GRAPHS = {
    "vertex-social": _SOCIAL_GRAPH,
    "edge-social": _SOCIAL_GRAPH,
    "zero-regular": (
        "regular", (("d", 16), ("n", 20_000)), 1968346936, 160000,
        "251037191793eeb9d0f0aaaf3d408a835b07951e515a48540f15c40a67e05228",
    ),
    "vertex-d1lc": (
        "regular", (("d", 16), ("n", 300)), 296157437, 2400,
        "f4d3e51421f374ff44c1ea04b73867bd1dd54833d86914649b2766b34c0e9b4e",
    ),
}


def _csr_digest(graph: Graph) -> str:
    indptr, indices = array("q", graph._indptr), array("q", graph._indices)
    if sys.byteorder == "big":
        indptr.byteswap()
        indices.byteswap()
    return hashlib.sha256(indptr.tobytes() + indices.tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOAD_GRAPHS))
def test_workload_graphs_are_pinned(name):
    family, params, seed, m, digest = WORKLOAD_GRAPHS[name]
    scenario = Scenario(family=family, params=params, partition="random",
                        protocol="vertex")
    assert scenario.effective_seed == seed
    build = _cached_workload.__wrapped__
    on, off = _both(lambda: build(family, params, seed))
    for graph in (on, off):
        assert graph.m == m
        assert _csr_digest(graph) == digest
