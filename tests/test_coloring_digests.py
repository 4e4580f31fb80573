"""Pinned digests of the edge colorings themselves, not just the transcripts.

Theorem 3 sends nothing, so its transcript fingerprint cannot tell one
coloring from another; Theorem 2's transcript pins only the messages.
These goldens pin the per-edge colors that Fournier, Vizing and the two
edge drivers produce: the sha256 of the sorted ``(edge, color)`` list,
on regular, social and G(n, p) graphs.  A change
to :class:`~repro.coloring.EdgeColoringState` or to the order in which
the colorers probe colors moves them.

If a change legitimately alters a coloring, re-pin by running this
file's ``_regenerate`` helper and say why in the change.
"""

from __future__ import annotations

import hashlib
import random

import pytest

import repro.coloring.fan as fan_module
from repro.coloring import fournier_edge_coloring, vizing_edge_coloring
from repro.core import run_edge_coloring, run_zero_comm_edge_coloring
from repro.core.edge_coloring import peel_heavy_matching
from repro.graphs import (
    Graph,
    configuration_model_edge_stream,
    gnp_random_graph,
    partition_random,
    power_law_degree_sequence,
    random_regular_graph,
)
from repro.rand import Stream

def _regular():
    return random_regular_graph(300, 12, random.Random(11))


def _social():
    stream = Stream.from_seed(12)
    degrees = power_law_degree_sequence(600, 2.3, 24, stream.derive("degrees"))
    return Graph(
        600, configuration_model_edge_stream(degrees, stream.derive("pairing"))
    )


def _gnp():
    return gnp_random_graph(200, 0.08, random.Random(13))


GRAPHS = {"regular": _regular, "social": _social, "gnp": _gnp}


def _peeled(graph):
    """Theorem 3's Fournier instance: Δ-Δ edges peeled, so Δ colors suffice."""
    return peel_heavy_matching(graph, graph.max_degree())[0]


COLORERS = {
    "fournier": lambda g: fournier_edge_coloring(_peeled(g)),
    "vizing": vizing_edge_coloring,
    "theorem2": lambda g: run_edge_coloring(partition_random(g, random.Random(5))).colors,
    "theorem3": lambda g: run_zero_comm_edge_coloring(
        partition_random(g, random.Random(5))
    ).colors,
}

#: One digest per colorer and graph.
DIGESTS = {
    "fournier/gnp":
        "6b600d3016005690388ccfd6a42fcce3965992c1400decdf5aa37fa8db40c886",
    "fournier/regular":
        "e7e5da9fb31a37112c09caaa6a03e638d33da2ad5ac6a395b08423184dda513e",
    "fournier/social":
        "b0442b8c514fb0bca0528fa4d2c110cd3e1837cf2e07682306d4fcaec3beaf6b",
    "theorem2/gnp":
        "baecf6fa9dea7944033b2ef30a8738140c9fa63917ce0b3d63ab1a63bc66d865",
    "theorem2/regular":
        "61a399604ffafca0d71b2b688b7c9fbbe68d00a1f10aa031e7303f04ebdec08e",
    "theorem2/social":
        "bcb38e9a80b80f9bb16b927a1be701fa8a797a26dc559475c4421431e5bbb82c",
    "theorem3/gnp":
        "52fb7d5361315475ee139ed88d4816facf7ba3eac9a7ac8b4825273d84d150ba",
    "theorem3/regular":
        "d8587d183fca03e53dfd3be24f738d320413225e6083340047b58e73a70199ff",
    "theorem3/social":
        "22f5b52db0d0189ab98dfe50bf11a38e8a6a107b3a7508400210ca4a6b309f90",
    "vizing/gnp":
        "267b1f9a0b524c01675f7c607d02fcbeaa8a7f5e0e8f55a368deba6b2213cdc5",
    "vizing/regular":
        "01dee4c1b7da21618b17055861f7433e2f3a5ece13134ae836ff03b694837185",
    "vizing/social":
        "8ca0d68f51cb6749a9f761ca852578c703e58e8e8d0877c835f60aa0021ea1ee",
}


def coloring_digest(colors) -> str:
    """sha256 of the sorted ``(edge, color)`` list."""
    return hashlib.sha256(repr(sorted(colors.items())).encode()).hexdigest()


def _coloring(key: str):
    colorer, family = key.split("/")
    return COLORERS[colorer](GRAPHS[family]())


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_coloring_digest_is_pinned(key):
    assert coloring_digest(_coloring(key)) == DIGESTS[key]


def _fan_calls_and_digest(monkeypatch, key):
    """The fan calls made while coloring ``key``, and the coloring's digest.

    Fournier and Vizing reach the fan through the shared
    :func:`~repro.coloring.fan.color_edges` loop, which looks it up as a
    module global of :mod:`repro.coloring.fan`.
    """
    calls = []
    fan = fan_module.color_edge_with_fan

    def counting(state, center, leaf):
        calls.append((center, leaf))
        fan(state, center, leaf)

    monkeypatch.setattr(fan_module, "color_edge_with_fan", counting)
    return calls, coloring_digest(_coloring(key))


def test_pinned_fournier_case_runs_the_fan_procedure(monkeypatch):
    """The Fournier goldens cover the fan path, not only common free colors."""
    calls, digest = _fan_calls_and_digest(monkeypatch, "fournier/regular")
    assert calls
    assert digest == DIGESTS["fournier/regular"]


def test_pinned_vizing_case_runs_the_fan_procedure(monkeypatch):
    """The Vizing goldens cover the fan path, not only common free colors."""
    calls, digest = _fan_calls_and_digest(monkeypatch, "vizing/regular")
    assert calls
    assert digest == DIGESTS["vizing/regular"]


def _regenerate() -> dict[str, str]:  # pragma: no cover - maintenance helper
    return {key: coloring_digest(_coloring(key)) for key in sorted(DIGESTS)}


if __name__ == "__main__":  # pragma: no cover
    for key, digest in _regenerate().items():
        print(f'    "{key}": "{digest}",')
