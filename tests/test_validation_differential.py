"""The one-pass edge validator against the definition-level reference.

Each case starts from a random proper edge coloring (Vizing on a random
graph, some keys written as ``(v, u)``) and applies
exactly one defect: a dropped edge, an off-palette color, a clash at a
vertex, a non-edge key, or one edge keyed in both orientations with equal
or with different colors.  ``is_proper_edge_coloring`` must agree with
``tests/reference_validation.py``, and ``assert_proper_edge_coloring``
must raise the diagnostic of the defect's kind: word for word where the
defect determines the message, and for a clash, one naming two edges
that really share the color at the named vertex.
"""

from __future__ import annotations

import random
import re

import pytest

from repro.coloring import vizing_edge_coloring
from repro.graphs import (
    assert_proper_edge_coloring,
    gnp_random_graph,
    is_proper_edge_coloring,
)

from .reference_validation import (
    reference_assert_proper_edge_coloring,
    reference_is_proper_edge_coloring,
)

DEFECTS = {
    "none": None,
    "drop_edge": "uncolored",
    "off_palette": "outside palette",
    "clash": "share color",
    "non_edge": "non-edges",
    "both_orientations_equal": None,
    "both_orientations_differ": "keyed twice",
}

CLASH = re.compile(
    r"edges \((\d+), (\d+)\) and \((\d+), (\d+)\) share color (\d+) at vertex (\d+)"
)


def _proper_coloring(rng: random.Random):
    """A random graph with a non-edge and a vertex of degree ≥ 2, Vizing-colored."""
    while True:
        n = rng.randint(4, 24)
        graph = gnp_random_graph(n, rng.uniform(0.15, 0.7), rng)
        if 2 <= graph.max_degree() and graph.m < n * (n - 1) // 2:
            break
    num_colors = graph.max_degree() + 1
    colors = vizing_edge_coloring(graph, num_colors=num_colors)
    if rng.random() < 0.5:
        colors = {
            ((v, u) if rng.random() < 0.5 else (u, v)): c for (u, v), c in colors.items()
        }
    return graph, colors, num_colors


def _key_of(colors, edge):
    u, v = edge
    return (u, v) if (u, v) in colors else (v, u)


def _apply(defect: str, graph, colors, num_colors, rng: random.Random):
    colors = dict(colors)
    edges = graph.edge_list()
    edge = rng.choice(edges)
    key = _key_of(colors, edge)
    if defect == "drop_edge":
        del colors[key]
    elif defect == "off_palette":
        colors[key] = rng.choice([0, num_colors + 1, num_colors + 7])
    elif defect == "clash":
        center = rng.choice([v for v in graph.vertices() if graph.degree(v) >= 2])
        a, b = rng.sample(sorted(graph.neighbors(center)), 2)
        colors[_key_of(colors, (center, a))] = colors[_key_of(colors, (center, b))]
    elif defect == "non_edge":
        present = set(edges)
        missing = [
            (u, v)
            for u in graph.vertices()
            for v in range(u + 1, graph.n)
            if (u, v) not in present
        ]
        u, v = rng.choice(missing)
        colors[(u, v) if rng.random() < 0.5 else (v, u)] = rng.randint(1, num_colors)
    elif defect.startswith("both_orientations"):
        color = colors[key]
        if defect.endswith("differ"):
            color = rng.choice([c for c in range(1, num_colors + 1) if c != color])
        colors[(key[1], key[0])] = color
    return colors


def _message(check, *args) -> str | None:
    try:
        check(*args)
    except AssertionError as exc:
        return str(exc)
    return None


#: Two independent streams of 25 cases per defect, seeded by these labels.
SEED_LABELS = ("csr", "set")


@pytest.mark.parametrize("seed_label", SEED_LABELS)
@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_validator_matches_reference_under_one_defect(defect, seed_label):
    rng = random.Random(f"{defect}/{seed_label}")
    for _ in range(25):
        graph, colors, num_colors = _proper_coloring(rng)
        bad = _apply(defect, graph, colors, num_colors, rng)
        for palette in (num_colors, None):
            verdict = is_proper_edge_coloring(graph, bad, palette)
            assert verdict == reference_is_proper_edge_coloring(graph, bad, palette)
            message = _message(assert_proper_edge_coloring, graph, bad, palette)
            expected = _message(reference_assert_proper_edge_coloring, graph, bad, palette)
            assert (message is None) == verdict
            if defect == "off_palette" and palette is None:
                # No palette to leave: the defect is then a clash or nothing.
                assert expected is None or "share color" in expected
            elif DEFECTS[defect] is None:
                assert message is None
            else:
                assert DEFECTS[defect] in message
            if expected is None or "share color" not in expected:
                assert message == expected
            else:
                _assert_real_clash(message, bad)


def _assert_real_clash(message: str, colors) -> None:
    match = CLASH.fullmatch(message)
    assert match, message
    a, b, c, d, color, w = map(int, match.groups())
    first, second = (a, b), (c, d)
    assert first != second
    assert w in first and w in second
    for u, v in (first, second):
        assert colors.get((u, v), colors.get((v, u))) == color
