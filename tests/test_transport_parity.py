"""Transport parity: both transports produce bit-for-bit identical transcripts.

A transport is only admissible if it is *observationally equivalent* on
the measurement instrument: same colorings, same transcript totals, same
per-phase stats, same round counts, on the same instances, under the same
seeds.  These tests run every registered scenario (smoke params) and the
full protocol/baseline stack on the count and strict transports and
compare everything.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines import (
    run_flin_mittal,
    run_greedy_binary_search,
    run_naive_exchange,
    run_one_round_sparsify,
    run_vizing_gather,
)
from repro.comm import TRANSPORTS
from repro.core import (
    run_edge_coloring,
    run_vertex_coloring,
    run_zero_comm_edge_coloring,
    weaker_from_streaming,
)
from repro.engine import run_scenario, smoke_scenarios
from repro.graphs import (
    gnp_random_graph,
    partition_random,
    random_regular_graph,
)
from repro.lowerbound.wstreaming import (
    BufferedWStreamColorer,
    GreedyWStreamColorer,
)

ALL_TRANSPORTS = sorted(TRANSPORTS)


def _phase_view(transcript):
    """Per-phase stats as a comparable plain structure."""
    return {
        name: (stats.bits_alice_to_bob, stats.bits_bob_to_alice, stats.rounds)
        for name, stats in transcript.phases.items()
    }


def _partition(n=48, d=6, seed=17):
    rng = random.Random(seed)
    return partition_random(random_regular_graph(n, d, rng), rng)


@pytest.mark.parametrize(
    "scenario", smoke_scenarios(), ids=lambda s: s.name
)
def test_every_registered_scenario_is_transport_invariant(scenario):
    """Scenario records must agree across transports on every metric."""
    records = {
        t: run_scenario(scenario.with_transport(t)) for t in ALL_TRANSPORTS
    }
    reference = records["count"]
    volatile = {"scenario", "transport", "wall_time_s"}
    for transport, record in records.items():
        assert record["valid"], (scenario.name, transport)
        stripped = {k: v for k, v in record.items() if k not in volatile}
        ref = {k: v for k, v in reference.items() if k not in volatile}
        assert stripped == ref, (scenario.name, transport)


def test_vertex_coloring_transport_parity():
    part = _partition()
    results = {
        t: run_vertex_coloring(part, seed=3, transport=t) for t in ALL_TRANSPORTS
    }
    reference = results["count"]
    for transport, result in results.items():
        assert result.colors == reference.colors, transport
        assert result.transcript.summary() == reference.transcript.summary()
        assert _phase_view(result.transcript) == _phase_view(reference.transcript)
        assert result.leftover_size == reference.leftover_size
    # The count transport must skip the per-round log but nothing else.
    assert reference.transcript.round_log == []
    strict = results["strict"].transcript
    assert len(strict.round_log) == strict.rounds


def test_edge_coloring_transport_parity():
    rng = random.Random(5)
    part = partition_random(random_regular_graph(40, 9, rng), rng)
    results = {t: run_edge_coloring(part, transport=t) for t in ALL_TRANSPORTS}
    reference = results["count"]
    for transport, result in results.items():
        assert result.colors == reference.colors, transport
        assert result.transcript.summary() == reference.transcript.summary()


def test_small_delta_edge_coloring_transport_parity():
    """The Lemma 5.1 bounded-degree path is also transport-invariant."""
    rng = random.Random(7)
    part = partition_random(random_regular_graph(24, 4, rng), rng)
    results = {t: run_edge_coloring(part, transport=t) for t in ALL_TRANSPORTS}
    reference = results["count"]
    for result in results.values():
        assert result.colors == reference.colors
        assert result.transcript.summary() == reference.transcript.summary()


def test_zero_comm_transport_parity():
    part = _partition()
    for transport in ALL_TRANSPORTS:
        result = run_zero_comm_edge_coloring(part, transport=transport)
        assert result.total_bits == 0
        assert result.transcript.rounds == 0


@pytest.mark.parametrize(
    "runner",
    [
        run_naive_exchange,
        run_greedy_binary_search,
        run_vizing_gather,
        lambda part, transport: run_one_round_sparsify(
            part, seed=9, transport=transport
        ),
        lambda part, transport: run_flin_mittal(part, seed=9, transport=transport),
    ],
    ids=["naive", "greedy_binary_search", "vizing_gather", "one_round", "flin_mittal"],
)
def test_baseline_transport_parity(runner):
    part = _partition(n=32, d=5, seed=23)
    results = {t: runner(part, transport=t) for t in ALL_TRANSPORTS}
    reference = results["count"]
    for transport, result in results.items():
        assert result.colors == reference.colors, transport
        assert result.transcript.summary() == reference.transcript.summary()


@pytest.mark.parametrize(
    "factory",
    [
        lambda part: lambda: GreedyWStreamColorer(part.n, part.max_degree),
        lambda part: lambda: BufferedWStreamColorer(part.n, 16),
    ],
    ids=["greedy", "buffered"],
)
def test_wstreaming_reduction_transport_parity(factory):
    rng = random.Random(31)
    part = partition_random(gnp_random_graph(30, 0.2, rng), rng)
    results = {
        t: weaker_from_streaming(part, factory(part), transport=t)
        for t in ALL_TRANSPORTS
    }
    reference = results["count"]
    for transport, result in results.items():
        assert result.colors == reference.colors, transport
        assert result.transcript.summary() == reference.transcript.summary()
        # Communication still equals the streamed state size.
        assert result.transcript.bits_bob_to_alice == 0
