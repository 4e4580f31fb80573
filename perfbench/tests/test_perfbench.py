"""Fast tests of the benchmark: miniatures of every workload, same code path.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import ab, harness
from perfbench.workloads import WORKLOADS
from repro.obs.trace import read_trace, validate_trace

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Family parameters small enough for a sub-second instance.
MINIATURE = {
    "vertex-social": {"n": 3000},
    "edge-social": {"n": 3000},
    "zero-regular": {"n": 400, "d": 8},
    "vertex-d1lc": {"n": 60, "d": 6},
}
SEED = 3


def mini(name: str):
    return WORKLOADS[name].miniature(**MINIATURE[name])


def test_benchmark_json_matches_the_harness():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(MINIATURE) == set(WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_timed_miniature_reports_every_end_to_end_metric(name):
    result = harness.run_timed(mini(name), SEED, seconds=0)
    assert result.correct, result.problems
    line = result.line()
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert set(line["metrics"]) == set(harness.E2E_UNITS)
    for metric in line["metrics"].values():
        assert metric["value"] > 0
    assert result.info["setups"] >= harness.MIN_SETUPS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_miniature_reports_layers_and_a_valid_trace(name, tmp_path):
    trace = tmp_path / "trace.jsonl"
    result, rows = harness.run_traced(mini(name), SEED, trace)
    assert result.correct, result.problems
    assert result.attempted == 2
    values = {k: v for k, (v, _unit) in result.metrics.items()}
    assert set(values) == set(harness.LAYER_UNITS)
    assert validate_trace(read_trace(trace)) == []
    assert rows and rows == sorted(rows, key=lambda r: -r["self_s"])
    assert values["graphs.generate_s"] > 0 and values["graphs.validate_s"] > 0
    if name == "vertex-social":
        assert values["rct.samples"] > 0 and values["d1lc.samples"] == 0
        assert values["rand.permutation_calls"] >= values["color_sample.calls"]
        assert 0 < values["rct.success_ratio"] <= 1
        assert values["claims.rounds_ratio"] > 0
    if name == "vertex-d1lc":
        assert values["rct.samples"] == 0 and values["d1lc.samples"] > 0
        assert values["d1lc.surviving_edges"] > 0
        assert values["comm.phase.d1lc_leftover.rounds"] == values["comm.rounds"]
    if name == "edge-social":
        assert values["cover.picks"] > 0 and values["cover.bits"] > 0
        assert values["comm.rounds"] == 2
    if name == "zero-regular":
        assert values["comm.bits_a2b"] + values["comm.bits_b2a"] == 0
        assert values["edge.peel_s"] > 0 and values["edge.palette_color_s"] > 0


def test_traced_run_restores_the_wrapped_functions():
    from repro.core import color_sample, random_color_trial
    from repro.rand.core import Stream

    before = (color_sample.color_sample_proto,
              random_color_trial.color_sample_proto,
              Stream.permutation)
    result, _rows = harness.run_traced(mini("vertex-social"), SEED)
    assert result.correct
    after = (color_sample.color_sample_proto,
             random_color_trial.color_sample_proto,
             Stream.permutation)
    assert after == before


def test_corrupted_coloring_counts_as_failed(monkeypatch):
    real_solve = harness.solve

    def corrupt(workload, part, seed):
        result = real_solve(workload, part, seed)
        for v in result.colors:
            result.colors[v] = 1
        return result

    monkeypatch.setattr(harness, "solve", corrupt)
    result = harness.run_timed(mini("vertex-social"), SEED, seconds=0)
    assert not result.correct
    assert (result.attempted, result.failed) == (1, 1)
    assert result.info["failed_frac"] == 1.0
    assert "not proper" in " ".join(result.problems)


def test_wrong_palette_counts_as_failed(monkeypatch):
    real_solve = harness.solve

    def widen(workload, part, seed):
        result = real_solve(workload, part, seed)
        result.num_colors += 1
        return result

    monkeypatch.setattr(harness, "solve", widen)
    result = harness.run_timed(mini("zero-regular"), SEED, seconds=0)
    assert result.failed == 1
    assert "theorem requires" in " ".join(result.problems)


def test_default_seed_must_reproduce_the_golden_transcript():
    workload = dataclasses.replace(mini("vertex-d1lc"), golden=(0, 0, "0" * 64))
    result = harness.run_timed(workload, workload.default_seed, seconds=0)
    assert result.failed == 1
    assert "differs from 0 / 0" in " ".join(result.problems)
    # Any other seed only has to agree with itself.
    assert harness.run_timed(workload, SEED, seconds=0).correct


def test_stamp_differences_ignore_the_commit():
    a = {"commit": "a", "python": "3.11.7", "nproc": 2}
    assert ab.stamp_differences(a, {**a, "commit": "b"}) == []
    assert ab.stamp_differences(a, {**a, "nproc": 4}) == ["nproc"]


def test_run_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and perfbench/: exit non-zero, print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "vertex-d1lc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
