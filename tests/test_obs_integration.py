"""Observability end-to-end: canonical artifacts are byte-identical.

The headline invariant of the ``repro.obs`` subsystem — observers write
only to their own files, and ``sweep.json`` is a pure function of the
grid with or without them — is pinned here at three levels: the engine
API (serial sweep), the dispatcher under an injected worker kill
(reusing the fault-injection harness), and the CLI flags end to end.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.dispatch import DispatchConfig
from repro.dispatch.progress import ShardProgress
from repro.engine import (
    SweepEvent,
    iter_scenarios,
    smoke_scenarios,
    sweep,
    write_results,
)
from repro.engine.sharding import Journal
from repro.obs import NULL_OBSERVER, get_observer, observing, read_trace
from tests.test_dispatch_fault_injection import (
    WIDE,
    ScriptedExecutor,
    _biggest_shard,
    _coordinator,
    _serial_bytes,
)

_SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def _src_on_worker_path(monkeypatch):
    existing = os.environ.get("PYTHONPATH", "")
    if _SRC not in existing.split(os.pathsep):
        merged = f"{_SRC}{os.pathsep}{existing}" if existing else _SRC
        monkeypatch.setenv("PYTHONPATH", merged)


def _grid():
    return list(
        iter_scenarios(smoke_scenarios(), pattern="vertex/regular")
    )


def test_null_observer_is_the_default_and_allocation_free():
    obs = get_observer()
    assert obs is NULL_OBSERVER
    assert obs.enabled is False
    # The disabled span path hands back one shared context object — no
    # per-call allocation on the hot path.
    assert obs.span("a") is obs.span("b", attrs="ignored")


def test_serial_sweep_bytes_identical_traced_vs_untraced(tmp_path):
    grid = _grid()
    plain_json, _ = write_results(sweep(grid, jobs=1), tmp_path / "plain")
    with observing(
        trace=tmp_path / "trace.jsonl", metrics=tmp_path / "metrics.json"
    ):
        traced_json, _ = write_results(
            sweep(grid, jobs=1), tmp_path / "traced"
        )
    # sweep.json is the canonical artifact: identical bytes, observed or
    # not.  (sweep.md renders live wall-clock timings by design, so it —
    # like any two runs' markdown — differs in the secs column only.)
    assert traced_json.read_bytes() == plain_json.read_bytes()
    # ... and the observer really observed: full span depth plus one
    # phase instant per protocol run.
    entries = read_trace(tmp_path / "trace.jsonl")
    names = {e["name"] for e in entries if e["ev"] == "B"}
    assert {"sweep", "scenario", "protocol"} <= names
    assert any(e["ev"] == "I" and e["name"] == "phase" for e in entries)
    document = json.loads((tmp_path / "metrics.json").read_text())
    assert document["counters"]["protocol.vertex.runs"] == len(grid)


def test_dispatch_with_injected_kill_bytes_identical_observed(tmp_path):
    # The dispatcher under observation, with a worker SIGKILLed mid-shard:
    # retries/kill counters are collected, the trace records shard events,
    # and the merged sweep.json still matches the serial bytes exactly.
    executor = ScriptedExecutor()
    coordinator = _coordinator(
        tmp_path,
        executor,
        DispatchConfig(workers=2, shards=2, backoff=0.05),
        transport=WIDE,
    )
    victim = _biggest_shard(coordinator)
    executor.wrap[(victim.shard_id, 1)] = "selfkill"

    with observing(
        trace=tmp_path / "trace.jsonl", metrics=tmp_path / "metrics.json"
    ):
        _, json_path, _ = coordinator.run()

    assert json_path.read_bytes() == _serial_bytes(tmp_path, WIDE)
    document = json.loads((tmp_path / "metrics.json").read_text())
    counters, gauges = document["counters"], document["gauges"]
    assert counters["dispatch.retries"] == 1
    assert counters["dispatch.launches"] == victim.attempts + 1
    assert counters["dispatch.shards_merged"] == 2
    assert gauges["dispatch.shards"] == 2
    assert gauges["dispatch.merge_tree_depth"] >= 1
    events = {
        e["name"] for e in read_trace(tmp_path / "trace.jsonl")
        if e["ev"] == "I"
    }
    assert {"shard_launched", "shard_retry", "shard_merged"} <= events


def test_sweep_progress_is_structured_events():
    grid = _grid()[:2]
    events: list[SweepEvent] = []
    sweep(grid, jobs=1, reps=2, progress=events.append)
    kinds = [e.kind for e in events]
    assert kinds == ["rep", "rep", "scenario", "rep", "rep", "scenario"]
    reps = [e for e in events if e.kind == "rep"]
    assert all(e.elapsed is not None and e.elapsed >= 0 for e in reps)
    assert re.fullmatch(
        r".+ rep 1/2 \(\d+\.\d\ds\)", str(reps[0])
    ), str(reps[0])
    done = [e for e in events if e.kind == "scenario"]
    assert [(e.completed, e.total) for e in done] == [(1, 2), (2, 2)]
    assert all(e.ok for e in done)
    assert re.fullmatch(
        r"done .+ \(\d/2, \d+\.\d\ds\)", str(done[0])
    ), str(done[0])


def test_journal_elapsed_is_entry_level_not_in_record(tmp_path):
    grid = _grid()[:2]
    path = tmp_path / "journal.jsonl"
    with Journal(path) as journal:
        sweep(grid, jobs=1, journal=journal)
    entries = [
        json.loads(line) for line in path.read_text().splitlines()
    ]
    assert entries
    for entry in entries:
        assert isinstance(entry["elapsed"], float)
        assert "elapsed" not in entry["record"]
        assert "wall_time_s" not in entry["record"]


def test_shard_progress_renders_rates_from_elapsed(tmp_path):
    journal = tmp_path / "journal.jsonl"
    lines = [
        {"scenario": "a", "record": {}, "elapsed": 2.0},
        {"scenario": "b", "rep": 0, "reps": 2, "record": {}, "elapsed": 4.0},
        {"scenario": "c", "record": {}},  # old worker: no elapsed field
    ]
    journal.write_text(
        "".join(json.dumps(line) + "\n" for line in lines)
    )
    progress = ShardProgress(3, journal, total=3)
    messages = list(progress.poll())
    assert messages[0] == "[shard 3] done a (1/3) (2.00s, 2.00s/unit)"
    assert messages[1] == "[shard 3] b rep 1/2 (4.00s, 3.00s/unit)"
    assert messages[2] == "[shard 3] done c (2/3)"  # timing-free, as before


def _run_cli(args, cwd):
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if _SRC not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            f"{_SRC}{os.pathsep}{existing}" if existing else _SRC
        )
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


SELECTION = ["--smoke", "--filter", "edge_zero_comm", "--jobs", "1"]


def test_cli_traced_sweep_bytes_and_trace_subcommand(tmp_path):
    plain = _run_cli(["sweep", *SELECTION, "--out", "plain"], tmp_path)
    assert plain.returncode == 0, plain.stderr
    traced = _run_cli(
        ["sweep", *SELECTION, "--out", "traced",
         "--trace", "trace.jsonl", "--metrics", "metrics.json"],
        tmp_path,
    )
    assert traced.returncode == 0, traced.stderr
    assert (tmp_path / "traced" / "sweep.json").read_bytes() == (
        tmp_path / "plain" / "sweep.json"
    ).read_bytes()
    # Progress lines are the stringified structured events.
    assert re.search(r"done edge_zero_comm\S* \(\d+/\d+, \d+\.\d\ds\)",
                     traced.stdout)

    summary = _run_cli(
        ["trace", "trace.jsonl", "--check",
         "--chrome", "chrome.json", "--json", "summary.json"],
        tmp_path,
    )
    assert summary.returncode == 0, summary.stderr
    assert "span summary" in summary.stdout
    chrome = json.loads((tmp_path / "chrome.json").read_text())
    assert chrome["traceEvents"]
    digest = json.loads((tmp_path / "summary.json").read_text())
    assert digest["problems"] == []
    assert any(s["span"] == "sweep" for s in digest["spans"])
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert "comm" in metrics and "wall_time_s" in metrics


def test_cli_trace_check_fails_on_invalid_file(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"ev": "B", "id": 1, "name": "open", "ts": 0.0}\n')
    tolerant = _run_cli(["trace", str(bad)], tmp_path)
    assert tolerant.returncode == 0  # report-only without --check
    assert "never closed" in tolerant.stderr
    strict = _run_cli(["trace", str(bad), "--check"], tmp_path)
    assert strict.returncode == 1
