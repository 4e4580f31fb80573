"""The shared edge-coloring loop and the heavy-row surgery against their definitions.

Fournier and Vizing color through :func:`repro.coloring.fan.color_edges`,
which writes the lowest common free color straight into the state.  The
references here are the per-edge loop it replaced: ``common_free_color``,
then ``assign`` (with its checks) or the fan procedure.  The returned
dicts must agree item for item, insertion order included, because
Theorem 2 builds its ``used`` lists and cover message in that order.

``peel_heavy_matching`` and ``defer_heavy_edges`` read only the rows of
vertices heavy at the start; their references walk every edge.  Both
must give the same remaining graph and the same list, in order.
"""

from __future__ import annotations

import random

import pytest

from repro.coloring import (
    EdgeColoringState,
    color_edge_with_fan,
    fournier_edge_coloring,
    vizing_edge_coloring,
)
from repro.core.edge_coloring import defer_heavy_edges, peel_heavy_matching
from repro.graphs import (
    Graph,
    canonical_edge,
    configuration_model_edge_stream,
    gnp_random_graph,
    power_law_degree_sequence,
    random_regular_graph,
)
from repro.rand import Stream

from .conftest import make_fournier_instance


# -- references: the per-edge loop and the full-edge-walk surgery ----------


def _reference_loop(state, pairs, fans):
    """Color ``pairs`` in order with ``common_free_color`` + ``assign`` or a fan."""
    for center, leaf in pairs:
        color = state.common_free_color(center, leaf)
        if color is not None:
            state.assign(center, leaf, color)
        else:
            fans.append((center, leaf))
            color_edge_with_fan(state, center, leaf)


def reference_fournier(graph, num_colors=None, fans=None):
    """Fournier's two phases over the per-edge loop."""
    fans = [] if fans is None else fans
    delta = graph.max_degree()
    if delta == 0:
        return {}
    k = delta if num_colors is None else num_colors
    heavy = set()
    if k == delta:
        heavy = {v for v, d in enumerate(graph.degrees()) if d == delta}
        assert graph.is_independent_set(heavy)
    phase_one, phase_two = [], []
    for u, v in graph.edge_list():
        if u in heavy:
            phase_two.append((u, v))
        elif v in heavy:
            phase_two.append((v, u))
        else:
            phase_one.append((u, v))
    state = EdgeColoringState(graph.n, k)
    _reference_loop(state, phase_one + phase_two, fans)
    return state.colors()


def reference_vizing(graph, fans=None):
    """Vizing over the per-edge loop, in canonical edge order."""
    fans = [] if fans is None else fans
    state = EdgeColoringState(graph.n, graph.max_degree() + 1)
    _reference_loop(state, graph.edge_list(), fans)
    return state.colors()


def reference_peel(graph, delta):
    """The sequential Δ-Δ peel as one walk over every edge."""
    remaining = graph.copy()
    peeled = []
    degree = graph.degrees()
    for u, v in graph.edges():
        if degree[u] == delta and degree[v] == delta:
            degree[u] -= 1
            degree[v] -= 1
            remaining.remove_edge(u, v)
            peeled.append((u, v))
    return remaining, peeled


def reference_defer(graph, threshold):
    """Algorithm 2's defer with its queue built from every edge."""
    remaining = graph.copy()
    deferred = []
    heavy = {v for v in remaining.vertices() if remaining.degree(v) >= threshold}
    queue = [e for e in remaining.edge_list() if e[0] in heavy and e[1] in heavy]
    while queue:
        u, v = queue.pop()
        if u not in heavy or v not in heavy or not remaining.has_edge(u, v):
            continue
        remaining.remove_edge(u, v)
        deferred.append(canonical_edge(u, v))
        for w in (u, v):
            if remaining.degree(w) < threshold:
                heavy.discard(w)
    return remaining, deferred


# -- graphs ---------------------------------------------------------------


def _social(n, seed):
    stream = Stream.from_seed(seed)
    degrees = power_law_degree_sequence(n, 2.3, 24, stream.derive("degrees"))
    return Graph(n, configuration_model_edge_stream(degrees, stream.derive("pairing")))


def _random_graphs():
    graphs = {}
    for seed in range(4):
        rng = random.Random(seed)
        graphs[f"gnp-{seed}"] = gnp_random_graph(120, 0.1, rng)
        graphs[f"regular-{seed}"] = random_regular_graph(100, 9 + seed % 2, rng)
        graphs[f"social-{seed}"] = _social(300, seed)
    return graphs


RANDOM_GRAPHS = _random_graphs()


def _with_slack(graph, seed):
    """A copy with a tenth of its edges removed, leaving slack in the rows."""
    rng = random.Random(seed)
    slack = graph.copy()
    for u, v in rng.sample(graph.edge_list(), graph.m // 10):
        slack.remove_edge(u, v)
    return slack


def _fournier_instances():
    """Graphs whose max-degree vertices are independent (Δ colors suffice)."""
    instances = {}
    for seed in range(6):
        rng = random.Random(100 + seed)
        instances[f"gnp-{seed}"] = make_fournier_instance(60, 0.25, rng)
    for name in ("regular-0", "regular-1", "gnp-0", "social-0"):
        graph = RANDOM_GRAPHS[name]
        instances[f"peeled-{name}"] = peel_heavy_matching(graph, graph.max_degree())[0]
    return instances


FOURNIER_INSTANCES = _fournier_instances()


# -- coloring loop --------------------------------------------------------


def test_fournier_with_delta_colors_matches_the_per_edge_loop():
    total_fans = 0
    for name, graph in FOURNIER_INSTANCES.items():
        fans = []
        expected = reference_fournier(graph, fans=fans)
        assert list(fournier_edge_coloring(graph).items()) == list(expected.items()), name
        total_fans += len(fans)
    # The instances must exercise the fan path, not only common free colors.
    assert total_fans > 0


@pytest.mark.parametrize("extra", [1, 3])
@pytest.mark.parametrize("name", sorted(RANDOM_GRAPHS))
def test_fournier_with_a_wider_palette_matches_the_per_edge_loop(name, extra):
    graph = RANDOM_GRAPHS[name]
    k = graph.max_degree() + extra
    expected = reference_fournier(graph, num_colors=k)
    assert list(fournier_edge_coloring(graph, num_colors=k).items()) == list(
        expected.items()
    )


def test_vizing_matches_the_per_edge_loop_on_random_graphs():
    total_fans = 0
    for name, graph in RANDOM_GRAPHS.items():
        fans = []
        expected = reference_vizing(graph, fans=fans)
        assert list(vizing_edge_coloring(graph).items()) == list(expected.items()), name
        total_fans += len(fans)
    assert total_fans > 0


# -- heavy-row surgery ----------------------------------------------------


def _surgery_cases():
    rng = random.Random(7)
    regular = random_regular_graph(80, 6, rng)
    return {
        "regular": regular,
        "regular-slack": _with_slack(regular, 1),
        "gnp-slack": _with_slack(gnp_random_graph(90, 0.12, rng), 2),
        "social": RANDOM_GRAPHS["social-1"],
        "edgeless": Graph(12),
    }


SURGERY_CASES = _surgery_cases()


@pytest.mark.parametrize("name", sorted(SURGERY_CASES))
def test_peel_reads_only_the_heavy_rows_and_matches_the_edge_walk(name):
    graph = SURGERY_CASES[name]
    delta = graph.max_degree()
    remaining, peeled = peel_heavy_matching(graph, delta)
    ref_remaining, ref_peeled = reference_peel(graph, delta)
    assert peeled == ref_peeled
    assert remaining == ref_remaining
    if name == "regular":
        # Every vertex starts heavy, so the peel removes a maximal matching.
        assert peeled
    if name == "edgeless":
        assert delta == 0 and peeled == []


@pytest.mark.parametrize("name", sorted(SURGERY_CASES))
def test_defer_reads_only_the_heavy_rows_and_matches_the_edge_walk(name):
    graph = SURGERY_CASES[name]
    for threshold in {graph.max_degree() - 1, graph.max_degree(), 0}:
        remaining, deferred = defer_heavy_edges(graph, threshold)
        ref_remaining, ref_deferred = reference_defer(graph, threshold)
        assert deferred == ref_deferred, threshold
        assert remaining == ref_remaining, threshold
    if name == "regular":
        assert defer_heavy_edges(graph, graph.max_degree() - 1)[1]
