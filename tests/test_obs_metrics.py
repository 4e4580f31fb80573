"""Metrics registry, wall-clock store, and gated comm telemetry.

The load-bearing assertions here tie the observability numbers back to
the measurement instrument: counters recorded during an observed run
must equal the transcript ledger's own totals, and the comm telemetry
counters must be dead (not merely unread) whenever no observer is
installed.
"""

from __future__ import annotations

import json

import pytest

from repro.comm import TRANSPORTS, telemetry
from repro.core.color_sample import color_sample_batch_proto
from repro.engine import run_scenario, Scenario
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    WALL_CLOCK,
    WallClock,
    get_observer,
    observing,
    read_trace,
    summarize_phases,
)
from repro.rand import Stream, derive_keys, kernels


def test_counter_monotone():
    counter = Counter()
    counter.inc()
    counter.inc(41)
    assert counter.value == 42
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_last_write_wins():
    gauge = Gauge()
    gauge.set(3.0)
    gauge.set(1.5)
    assert gauge.value == 1.5


def test_histogram_summary():
    histogram = Histogram()
    assert histogram.summary() == {"count": 0, "total": 0.0}
    for value in (1.0, 3.0, 2.0):
        histogram.observe(value)
    assert histogram.summary() == {
        "count": 3, "total": 6.0, "mean": 2.0, "min": 1.0, "max": 3.0,
    }


def test_registry_get_or_create_and_deterministic_snapshot(tmp_path):
    registry = MetricsRegistry()
    assert registry.counter("b") is registry.counter("b")
    registry.counter("b").inc(2)
    registry.counter("a").inc(1)
    registry.gauge("g").set(7.0)
    registry.histogram("h").observe(0.5)
    registry.extra["comm"] = {"color_sample_fanouts": 0}
    snapshot = registry.snapshot()
    assert list(snapshot["counters"]) == ["a", "b"]  # sorted
    assert snapshot["counters"] == {"a": 1, "b": 2}
    assert snapshot["gauges"] == {"g": 7.0}
    assert snapshot["comm"] == {"color_sample_fanouts": 0}
    out = registry.write(tmp_path / "nested" / "metrics.json")
    assert json.loads(out.read_text()) == snapshot


def test_wall_clock_semantics():
    clock = WallClock()
    assert clock.total("x") is None and clock.last("x") is None
    clock.record("x", 0.25)
    clock.record("x", 0.5)
    clock.record("y", 1.0)
    assert clock.total("x") == 0.75
    assert clock.last("x") == 0.5
    assert clock.count("x") == 2
    assert clock.snapshot()["x"] == {
        "count": 2, "total_s": 0.75, "mean_s": 0.375,
    }
    clock.discard(["x"])
    assert clock.total("x") is None
    assert clock.total("y") == 1.0  # discard is selective
    clock.clear()
    assert clock.snapshot() == {}


def _one_round(ch):
    reply = yield from ch.send(1, 1)
    return reply


def _fan_outs(ch, times):
    """``times`` one-round ``parallel`` invocations on one channel."""
    for _ in range(times):
        yield from ch.parallel({"k": (_one_round,)})


def test_comm_telemetry_dead_when_no_observer_installed():
    assert get_observer().enabled is False
    assert telemetry.enabled is False


def test_comm_telemetry_counts_under_observing(tmp_path):
    with observing(metrics=tmp_path / "metrics.json"):
        TRANSPORTS["count"].run((_fan_outs, 3), (_fan_outs, 3))
    assert telemetry.enabled is False  # restored on exit
    document = json.loads((tmp_path / "metrics.json").read_text())
    # Plain parallel fan-outs are not Color-Sample fan-outs.
    assert document["comm"] == {
        "color_sample_fanouts": 0,
        "color_sample_instances": 0,
        "color_sample_kernel_fanouts": 0,
    }


def _color_sample_fan_outs(ch):
    """20 instances at m=17, then 5 at m=7 (no batched tables below 13)."""
    for m, k in ((17, 20), (7, 5)):
        keys = derive_keys(Stream.from_seed(k).key, range(k))
        yield from color_sample_batch_proto(ch, m, [0] * (k + 1), [], keys)


def test_color_sample_telemetry_dead_when_no_observer_installed():
    telemetry.reset()
    TRANSPORTS["count"].run((_color_sample_fan_outs,), (_color_sample_fan_outs,))
    assert telemetry.color_sample_fanouts == 0
    assert telemetry.color_sample_instances == 0
    assert telemetry.color_sample_kernel_fanouts == 0


@pytest.mark.parametrize("numpy_on", [True, False])
def test_color_sample_telemetry_counts_under_observing(tmp_path, monkeypatch, numpy_on):
    if numpy_on and not kernels.available():
        pytest.skip("numpy kernels unavailable")
    if not numpy_on:
        monkeypatch.setattr(kernels, "_np", None)
    with observing(metrics=tmp_path / "metrics.json"):
        TRANSPORTS["count"].run(
            (_color_sample_fan_outs,), (_color_sample_fan_outs,)
        )
    comm = json.loads((tmp_path / "metrics.json").read_text())["comm"]
    # Per party: two fan-outs of 25 instances; only the m=17 one runs as
    # the lockstep kernel.
    assert comm["color_sample_fanouts"] == 2 * 2
    assert comm["color_sample_instances"] == 2 * 25
    assert comm["color_sample_kernel_fanouts"] == (2 if numpy_on else 0)


def _smoke_scenario():
    return Scenario(
        "regular", (("d", 4), ("n", 24)), "random", "vertex", seed=7
    )


def test_observed_counters_equal_ledger_totals(tmp_path):
    """The metrics document repeats the transcript ledger exactly."""
    scenario = _smoke_scenario()
    trace_path = tmp_path / "trace.jsonl"
    with observing(trace=trace_path, metrics=tmp_path / "metrics.json"):
        record = run_scenario(scenario)
    document = json.loads((tmp_path / "metrics.json").read_text())
    counters = document["counters"]
    assert counters["protocol.vertex.runs"] == 1
    assert counters["protocol.vertex.total_bits"] == record["total_bits"]
    assert counters["protocol.vertex.rounds"] == record["rounds"]
    # Per-phase counters partition the totals.
    phase_bits = sum(
        value for name, value in counters.items()
        if name.startswith("protocol.vertex.phase.") and name.endswith(".bits")
    )
    phase_rounds = sum(
        value for name, value in counters.items()
        if name.startswith("protocol.vertex.phase.")
        and name.endswith(".rounds")
    )
    assert phase_bits == record["total_bits"]
    assert phase_rounds == record["rounds"]
    # The trace's phase instants carry the same ledger numbers.
    phases = summarize_phases(read_trace(trace_path))
    assert sum(p["bits"] for p in phases) == record["total_bits"]
    assert sum(p["rounds"] for p in phases) == record["rounds"]
    # Random-Color-Trial's Color-Sample fan-outs are counted too.
    comm = document["comm"]
    assert comm["color_sample_instances"] >= comm["color_sample_fanouts"] > 0
    # And the wall-clock store is the (only) home of the elapsed time.
    assert "wall_time_s" not in record
    assert WALL_CLOCK.last(scenario.name) is not None
    assert document["wall_time_s"][scenario.name]["count"] >= 1


def test_observing_restores_previous_observer_on_error(tmp_path):
    before = get_observer()
    with pytest.raises(RuntimeError):
        with observing(metrics=tmp_path / "metrics.json"):
            assert get_observer() is not before
            raise RuntimeError("boom")
    assert get_observer() is before
    assert telemetry.enabled is False
    # The metrics document is still written on the error path.
    assert (tmp_path / "metrics.json").exists()
