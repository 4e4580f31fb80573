"""Random-Color-Trial's array iteration against its set definitions.

Each iteration gathers the awake vertices' rows once
(:meth:`Graph.gather_rows`), reads the fan-out's used colors off them
(:func:`used_colors`) and the confirmation clashes
(:func:`confirmation_bits`).  Each is checked here against the set
reference (``neighbor_colors`` and the brute-force confirmation
definition), with numpy on and off, on rows with removal slack and on
zero-degree vertices; the flat fan-out input is checked against the
per-set reference fan-out on the palettes that take it.
"""

from __future__ import annotations

import random
from contextlib import nullcontext

import pytest

from repro.comm import TRANSPORTS
from repro.comm.transport import Channel
from repro.core import random_color_trial
from repro.core.color_sample import color_sample_batch_proto, color_sample_proto
from repro.core.probes import confirmation_bits, used_colors
from repro.graphs import gnp_random_graph, partition_random
from repro.rand import Stream, derive_keys, kernels

MODES = [
    pytest.param(True, id="numpy"),
    pytest.param(False, id="pure"),
]


def _mode(numpy_on: bool):
    if numpy_on and not kernels.available():
        pytest.skip("numpy kernels unavailable")
    return nullcontext() if numpy_on else kernels.disabled()


def _slack_graph(n: int = 60, seed: int = 3):
    """A graph with removal slack in many rows and a few emptied rows."""
    rng = random.Random(seed)
    g = gnp_random_graph(n, 0.12, rng)
    edges = g.edge_list()
    for u, v in rng.sample(edges, len(edges) // 3):
        g.remove_edge(u, v)
    for v in (0, 7):  # zero-degree vertices
        for u in list(g.neighbors(v)):
            g.remove_edge(u, v)
    assert len(g._indices) > 2 * g.m
    assert g.degree(0) == 0 and g.degree(7) == 0
    return g


def _rows(offsets, ids):
    bounds = list(offsets)
    return [list(ids[a:b]) for a, b in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("numpy_on", MODES)
def test_gather_rows_is_the_live_rows(numpy_on):
    g = _slack_graph()
    awake = [v for v in range(g.n) if v % 4 != 1]
    with _mode(numpy_on):
        offsets, ids = g.gather_rows(awake)
        empty = g.gather_rows([])
    assert list(offsets)[0] == 0 and len(offsets) == len(awake) + 1
    assert _rows(offsets, ids) == [sorted(g.neighbors(v)) for v in awake]
    assert list(empty[0]) == [0] and list(empty[1]) == []


def test_gather_rows_paths_give_the_same_values():
    if not kernels.available():
        pytest.skip("numpy kernels unavailable")
    g = _slack_graph(seed=11)
    awake = list(range(0, g.n, 2))
    with_np = g.gather_rows(awake)
    with kernels.disabled():
        pure = g.gather_rows(awake)
    assert [x.tolist() for x in with_np] == [list(x) for x in pure]


def _coloring(g, seed: int):
    """A partial coloring as a dict and as a per-vertex color list."""
    rng = random.Random(seed)
    colors = {v: rng.randint(1, 9) for v in range(g.n) if rng.random() < 0.5}
    dense = [colors.get(v, 0) for v in range(g.n)]
    return colors, dense


@pytest.mark.parametrize("numpy_on", MODES)
@pytest.mark.parametrize("colored", [True, False], ids=["colored", "uncolored"])
def test_used_colors_are_the_neighbor_colors(numpy_on, colored):
    g = _slack_graph()
    colors, dense = _coloring(g, 5) if colored else ({}, [0] * g.n)
    awake = [v for v in range(g.n) if v not in colors]
    with _mode(numpy_on):
        table = dense if not numpy_on else kernels._np.asarray(dense)
        offsets, used = used_colors(*g.gather_rows(awake), table)
    rows = _rows(offsets, used)
    assert [set(row) for row in rows] == [g.neighbor_colors(v, colors) for v in awake]
    # Row order and repeats are kept: one entry per colored neighbor.
    assert [len(row) for row in rows] == [
        sum(u in colors for u in g.neighbors(v)) for v in awake
    ]
    if not colored:
        assert list(offsets) == [0] * (len(awake) + 1)


def _brute_force_bits(g, awake, picks):
    pick = dict(zip(awake, picks))
    return tuple(
        all(pick[u] != pick[v] for u in g.neighbors(v) if u in pick) for v in awake
    )


@pytest.mark.parametrize("numpy_on", MODES)
@pytest.mark.parametrize("seed", range(4))
def test_confirmation_bits_match_the_brute_force_definition(numpy_on, seed):
    g = _slack_graph(seed=seed)
    rng = random.Random(seed)
    awake = sorted({*rng.sample(range(g.n), g.n // 2), 0, 7})
    picks = [rng.randint(1, 3) for _ in awake]
    with _mode(numpy_on):
        bits = confirmation_bits(*g.gather_rows(awake), awake, picks)
        assert confirmation_bits(*g.gather_rows([]), [], []) == ()
    assert bits == _brute_force_bits(g, awake, picks)
    assert False in bits and True in bits
    assert bits[awake.index(0)] and bits[awake.index(7)]  # no neighbors


def _fan_out(ch, m, offsets, used, keys):
    return (yield from color_sample_batch_proto(ch, m, offsets, used, keys))


def _reference(ch, m, used_sets, keys):
    return (
        yield from ch.parallel(
            {
                i: (color_sample_proto, m, used, Stream(int(key)))
                for i, (used, key) in enumerate(zip(used_sets, keys))
            }
        )
    )


@pytest.mark.parametrize("numpy_on", MODES)
@pytest.mark.parametrize("m", [10, 12, 40, 97, 160])
def test_flat_fan_out_input_matches_the_per_set_reference(numpy_on, m):
    """Lehmer (m <= 12), lockstep and Feistel/sampling (m > 96) palettes."""
    rng = random.Random(m)
    n = 80
    g = gnp_random_graph(n, min(m // 3, 8) / n, rng)
    assert g.max_degree() < m  # |A| + |B| <= m - 1 for every instance
    part = partition_random(g, rng)
    colors = {v: rng.randint(1, m) for v in range(n) if rng.random() < 0.4}
    awake = [v for v in range(n) if v not in colors]
    keys = derive_keys(Stream.from_seed(m).derive("flat").key, awake)
    sides = [part.alice_graph, part.bob_graph]
    with _mode(numpy_on):
        np = kernels._np
        dense = [colors.get(v, 0) for v in range(n)]
        table = dense if np is None else np.asarray(dense)
        flat = [used_colors(*side.gather_rows(awake), table) for side in sides]
        got_a, got_b, got_t = TRANSPORTS["strict"].run(
            (_fan_out, m, *flat[0], keys), (_fan_out, m, *flat[1], keys)
        )
        want_a, want_b, want_t = TRANSPORTS["strict"].run(
            *[
                (_reference, m, [side.neighbor_colors(v, colors) for v in awake], keys)
                for side in sides
            ]
        )
    assert list(got_a.items()) == list(want_a.items())
    assert got_a == got_b == want_b
    assert got_t.fingerprint(with_log=True) == want_t.fingerprint(with_log=True)


@pytest.mark.parametrize("numpy_on", MODES)
@pytest.mark.parametrize("m", [7, 17, 120])
def test_out_of_palette_flat_input_fails_before_any_round(numpy_on, m):
    keys = derive_keys(Stream.from_seed(1).key, range(4))
    offsets = [0, 1, 1, 3, 4]
    with _mode(numpy_on):
        for bad in (0, m + 1):
            gen = color_sample_batch_proto(Channel(), m, offsets, [2, 3, bad, 1], keys)
            with pytest.raises(ValueError, match=r"outside palette \[1\.\." + str(m)):
                next(gen)
        with pytest.raises(ValueError, match="offsets"):
            next(color_sample_batch_proto(Channel(), m, [0, 1], [2], keys))


@pytest.mark.parametrize("numpy_on", MODES)
def test_confirmation_bits_run_once_per_iteration_per_party(numpy_on, monkeypatch):
    calls: list[tuple[int, ...]] = []
    fan_outs: list[int] = []
    real_bits = random_color_trial.confirmation_bits
    real_fan_out = random_color_trial.color_sample_batch_proto

    def counted_bits(offsets, ids, awake, picks):
        calls.append(tuple(awake))
        return real_bits(offsets, ids, awake, picks)

    def counted_fan_out(ch, m, offsets, used, keys):
        fan_outs.append(len(keys))
        return real_fan_out(ch, m, offsets, used, keys)

    monkeypatch.setattr(random_color_trial, "confirmation_bits", counted_bits)
    monkeypatch.setattr(random_color_trial, "color_sample_batch_proto", counted_fan_out)
    rng = random.Random(2)
    g = gnp_random_graph(120, 0.08, rng)
    part = partition_random(g, rng)
    m = g.max_degree() + 1
    with _mode(numpy_on):
        history: list[int] = []
        (colors, active), _, _ = TRANSPORTS["count"].run(
            (random_color_trial.random_color_trial_proto, part.alice_graph, m,
             Stream.from_seed(4), None, history),
            (random_color_trial.random_color_trial_proto, part.bob_graph, m,
             Stream.from_seed(4)),
        )
    # Each iteration with awake vertices: one fan-out and one confirmation
    # per party, over the same (common-knowledge) awake list.
    assert len(calls) == len(fan_outs) > 2
    assert len(calls) % 2 == 0
    assert calls[0::2] == calls[1::2]
    assert len(calls) // 2 <= len(history)
    assert len(colors) + len(active) == g.n
