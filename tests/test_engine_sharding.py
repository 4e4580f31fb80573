"""Distributed sweep tests: sharding, journal resume, merge verification.

The headline invariant of ``repro.engine.sharding``: a full serial sweep
and the merged union of any N-way sharded sweep write bit-for-bit
identical ``sweep.json`` documents — including under replication
(``--reps``) and after a crash/resume cycle.
"""

from __future__ import annotations

import json

import pytest

from repro import __version__
from repro.engine import (
    Journal,
    MergeError,
    Scenario,
    merge_documents,
    parse_shard_spec,
    run_scenario,
    run_scenario_reps,
    shard_index,
    shard_scenarios,
    smoke_scenarios,
    sweep,
    write_results,
)
from repro.engine import runner as runner_module
from repro.__main__ import main


def _tiny(protocol: str, partition: str = "random", transport: str = "count") -> Scenario:
    return Scenario(
        family="regular",
        params=(("d", 4), ("n", 24)),
        partition=partition,
        protocol=protocol,
        transport=transport,
    )


def _tiny_grid() -> list[Scenario]:
    """Six fast coordinates spanning protocols, partitions, and transports."""
    return [
        _tiny("vertex"),
        _tiny("vertex", transport="strict"),
        _tiny("vertex", partition="all_alice"),
        _tiny("edge"),
        _tiny("edge_zero_comm"),
        _tiny("edge_zero_comm", transport="strict"),
    ]


# ---------------------------------------------------------------------------
# shard assignment
# ---------------------------------------------------------------------------


def test_parse_shard_spec():
    assert parse_shard_spec("1/3") == (1, 3)
    assert parse_shard_spec("3/3") == (3, 3)
    assert parse_shard_spec("1/1") == (1, 1)
    for bad in ("0/3", "4/3", "-1/3", "1/0", "a/b", "3", "1/2/3", ""):
        with pytest.raises(ValueError):
            parse_shard_spec(bad)


@pytest.mark.parametrize("count", [1, 2, 3, 5])
def test_shards_partition_the_grid(count):
    grid = smoke_scenarios()
    shards = [shard_scenarios(grid, k, count) for k in range(1, count + 1)]
    # Disjoint and union-complete.
    names = [s.name for shard in shards for s in shard]
    assert sorted(names) == sorted(s.name for s in grid)
    assert len(names) == len(set(names))
    # Grid order is preserved within each shard.
    order = {s.name: i for i, s in enumerate(grid)}
    for shard in shards:
        positions = [order[s.name] for s in shard]
        assert positions == sorted(positions)


def test_shard_assignment_is_stable_under_grid_growth():
    # A scenario's shard depends only on its own name and the shard count:
    # computing it from the full grid or any sub-grid must agree, so adding
    # scenarios never reassigns existing ones.
    grid = smoke_scenarios()
    full = {s.name: shard_index(s.name, 3) for s in grid}
    half = {s.name: shard_index(s.name, 3) for s in grid[: len(grid) // 2]}
    assert all(full[name] == idx for name, idx in half.items())


def test_shard_scenarios_validates_index():
    grid = smoke_scenarios()
    with pytest.raises(ValueError):
        shard_scenarios(grid, 0, 3)
    with pytest.raises(ValueError):
        shard_scenarios(grid, 4, 3)


# ---------------------------------------------------------------------------
# the headline invariant: serial == merged shards, bit for bit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("count", [2, 3])
@pytest.mark.parametrize("reps", [1, 2])
def test_serial_sweep_equals_merged_shards(tmp_path, count, reps):
    grid = _tiny_grid()
    serial = sweep(grid, jobs=1, reps=reps)
    serial_json, _ = write_results(serial, tmp_path / "serial")

    documents = []
    for k in range(1, count + 1):
        shard = shard_scenarios(grid, k, count)
        records = sweep(shard, jobs=1, reps=reps)
        json_path, _ = write_results(
            records, tmp_path / f"shard{k}", shard=f"{k}/{count}"
        )
        documents.append(json.loads(json_path.read_text()))

    merged = merge_documents(documents, grid, check_complete=True)
    merged_json, _ = write_results(merged, tmp_path / "merged")
    assert merged_json.read_bytes() == serial_json.read_bytes()


def test_sweep_json_is_canonical(tmp_path):
    # Volatile wall time stays out of the document; two runs of the same
    # grid produce identical bytes.
    grid = [_tiny("edge_zero_comm")]
    path_a, _ = write_results(sweep(grid, jobs=1), tmp_path / "a")
    path_b, _ = write_results(sweep(grid, jobs=1), tmp_path / "b")
    assert path_a.read_bytes() == path_b.read_bytes()
    document = json.loads(path_a.read_text())
    assert "wall_time_s" not in document["results"][0]


# ---------------------------------------------------------------------------
# replication
# ---------------------------------------------------------------------------


def test_rep_seeds_are_stable_and_distinct():
    scenario = _tiny("vertex")
    seeds = [scenario.rep_seed(r) for r in range(4)]
    assert seeds[0] == scenario.effective_seed
    assert len(set(seeds)) == 4
    assert seeds == [scenario.rep_seed(r) for r in range(4)]


def test_run_scenario_reps_aggregates():
    scenario = _tiny("vertex")
    record = run_scenario_reps(scenario, reps=3)
    assert record["reps"] == 3
    assert record["rep_seeds"] == [scenario.rep_seed(r) for r in range(3)]
    assert record["seed"] == scenario.effective_seed
    assert record["valid"] is True
    stats = record["metrics"]["total_bits"]
    assert {"mean", "std", "ci95", "min", "max", "count"} <= set(stats)
    assert stats["count"] == 3
    # The flat key carries the across-rep mean of per-rep runs.
    from dataclasses import replace

    per_rep = [
        run_scenario(replace(scenario, seed=scenario.rep_seed(r)))["total_bits"]
        for r in range(3)
    ]
    assert record["total_bits"] == pytest.approx(sum(per_rep) / 3)
    assert stats["min"] == min(per_rep) and stats["max"] == max(per_rep)


def test_run_scenario_reps_keeps_constants_integral():
    # Structural coordinates (n, m, Δ on a regular family) are identical
    # across reps: they must keep their integer value, not degrade to a
    # float mean with zero-width stats.
    record = run_scenario_reps(_tiny("vertex"), reps=3)
    for key in ("n", "m", "max_degree"):
        assert isinstance(record[key], int), key
        assert key not in record["metrics"], key
    assert record["n"] == 24


def test_run_scenario_reps_one_is_plain_run():
    scenario = _tiny("edge_zero_comm")

    def canonical(record):
        return {k: v for k, v in record.items() if k != "wall_time_s"}

    assert canonical(run_scenario_reps(scenario, reps=1)) == canonical(
        run_scenario(scenario)
    )
    with pytest.raises(ValueError):
        run_scenario_reps(scenario, reps=0)


# ---------------------------------------------------------------------------
# journal
# ---------------------------------------------------------------------------


def test_journal_resume_skips_completed(tmp_path, monkeypatch):
    grid = _tiny_grid()
    path = tmp_path / "journal.jsonl"
    with Journal(path) as journal:
        baseline = sweep(grid, jobs=1, journal=journal)
    lines = path.read_text().splitlines()
    assert len(lines) == len(grid)

    # Crash after two scenarios: keep a truncated journal, then resume.
    path.write_text("\n".join(lines[:2]) + "\n")
    executed = []
    original = run_scenario_reps

    def tracking(scenario, reps=1, journal=None, on_rep=None):
        executed.append(scenario.name)
        return original(scenario, reps, journal=journal, on_rep=on_rep)

    monkeypatch.setattr(runner_module, "run_scenario_reps", tracking)
    with Journal(path, resume=True) as journal:
        assert set(journal.completed) == {s.name for s in grid[:2]}
        resumed = sweep(grid, jobs=1, journal=journal)
    assert executed == [s.name for s in grid[2:]]

    def canonical(rows):
        return [{k: v for k, v in r.items() if k != "wall_time_s"} for r in rows]

    assert canonical(resumed) == canonical(baseline)
    assert len(path.read_text().splitlines()) == len(grid)


def test_journal_without_resume_truncates(tmp_path):
    path = tmp_path / "journal.jsonl"
    with Journal(path) as journal:
        journal.append("x", {"scenario": "x"})
    with Journal(path) as journal:  # fresh run
        assert journal.completed == {}
    assert path.read_text() == ""


def test_journal_ignores_torn_and_stale_lines(tmp_path):
    path = tmp_path / "journal.jsonl"
    good = {"record": {"scenario": "a"}, "reps": 1, "scenario": "a", "version": __version__}
    stale = dict(good, scenario="b", version="0.0.0")
    wrong_reps = dict(good, scenario="c", reps=5)
    late = dict(good, scenario="d")
    path.write_text(
        json.dumps(good) + "\n"
        + json.dumps(stale) + "\n"
        + '{"torn": tru\n'  # crash mid-append, now an *interior* line
        + json.dumps(wrong_reps) + "\n"
        + json.dumps(late) + "\n"
    )
    journal = Journal(path, resume=True)
    journal.close()
    # Valid entries after the torn line still count; a resume rewrites the
    # journal so the corruption cannot accumulate.
    assert set(journal.completed) == {"a", "d"}
    survivors = [json.loads(line)["scenario"] for line in path.read_text().splitlines()]
    assert survivors == ["a", "d"]


def test_journal_resume_never_appends_onto_torn_tail(tmp_path):
    path = tmp_path / "journal.jsonl"
    good = {"record": {"scenario": "a"}, "reps": 1, "scenario": "a", "version": __version__}
    path.write_text(json.dumps(good) + "\n" + '{"torn": tru')  # no newline
    with Journal(path, resume=True) as journal:
        journal.append("b", {"scenario": "b"})
    # Every line parses: the torn tail was dropped by the rewrite, not
    # concatenated with the next append.
    parsed = [json.loads(line) for line in path.read_text().splitlines()]
    assert [e["scenario"] for e in parsed] == ["a", "b"]


def _canonical(rows):
    return [{k: v for k, v in r.items() if k != "wall_time_s"} for r in rows]


def test_rep_journal_resume_replays_completed_reps(tmp_path, monkeypatch):
    grid = _tiny_grid()[:2]
    path = tmp_path / "journal.jsonl"
    with Journal(path) as journal:
        baseline = sweep(grid, jobs=1, reps=3, journal=journal)
    lines = path.read_text().splitlines()
    # Per scenario: one line per finished rep, then the aggregate.
    assert [json.loads(line).get("rep") for line in lines] == [
        0, 1, 2, None, 0, 1, 2, None,
    ]

    # Crash mid-replication: scenario 1 fully aggregated, scenario 2 has
    # journaled reps 0 and 1 but neither rep 2 nor its aggregate.
    path.write_text("\n".join(lines[:6]) + "\n")
    executed = []
    original = runner_module.run_scenario_rep

    def tracking(scenario, rep):
        executed.append((scenario.name, rep))
        return original(scenario, rep)

    monkeypatch.setattr(runner_module, "run_scenario_rep", tracking)
    with Journal(path, resume=True) as journal:
        assert set(journal.completed) == {grid[0].name}
        assert sorted(journal.partial[grid[1].name]) == [0, 1]
        resumed = sweep(grid, jobs=1, reps=3, journal=journal)

    # Only the one missing rep ran; reps 0 and 1 were replayed.
    assert executed == [(grid[1].name, 2)]
    assert _canonical(resumed) == _canonical(baseline)
    # The rewrite dropped rep lines of completed scenarios (the aggregate
    # supersedes them) and the resumed run completed scenario 2.
    final = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(e["scenario"], e.get("rep")) for e in final] == [
        (grid[0].name, None),
        (grid[1].name, 0),
        (grid[1].name, 1),
        (grid[1].name, 2),
        (grid[1].name, None),
    ]


def test_pool_rep_sweep_matches_serial_and_journals_reps(tmp_path):
    grid = _tiny_grid()
    serial = sweep(grid, jobs=1, reps=2)
    path = tmp_path / "journal.jsonl"
    with Journal(path) as journal:
        pooled = sweep(grid, jobs=2, reps=2, journal=journal)
    assert _canonical(pooled) == _canonical(serial)
    entries = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(entries) == len(grid) * 3
    for scenario in grid:
        mine = [e.get("rep") for e in entries if e["scenario"] == scenario.name]
        assert sorted(mine, key=lambda r: (r is None, r)) == [0, 1, None]


def test_pool_resume_mid_reps_replays_partial_scenarios(tmp_path):
    grid = _tiny_grid()
    path = tmp_path / "journal.jsonl"
    with Journal(path) as journal:
        baseline = sweep(grid, jobs=1, reps=2, journal=journal)
    lines = path.read_text().splitlines()
    assert len(lines) == len(grid) * 3
    # Crash leaving: scenarios 0-3 aggregated, scenario 4 with both reps
    # journaled but no aggregate (died between last rep and aggregate),
    # scenario 5 not started.
    path.write_text("\n".join(lines[: 4 * 3 + 2]) + "\n")
    with Journal(path, resume=True) as journal:
        assert len(journal.completed) == 4
        assert sorted(journal.partial[grid[4].name]) == [0, 1]
        resumed = sweep(grid, jobs=2, reps=2, journal=journal)
    assert _canonical(resumed) == _canonical(baseline)
    final = [json.loads(line) for line in path.read_text().splitlines()]
    # Every scenario ends aggregated after the resume.
    aggregated = [e["scenario"] for e in final if "rep" not in e]
    assert sorted(aggregated) == sorted(s.name for s in grid)


# ---------------------------------------------------------------------------
# merge verification
# ---------------------------------------------------------------------------


def _shard_documents(grid, count=2):
    documents = []
    for k in range(1, count + 1):
        shard = shard_scenarios(grid, k, count)
        records = sweep(shard, jobs=1)
        documents.append(
            {
                "version": __version__,
                "count": len(records),
                "results": [
                    {key: v for key, v in r.items() if key != "wall_time_s"}
                    for r in records
                ],
            }
        )
    return documents


def test_merge_rejects_version_mismatch():
    grid = [_tiny("edge_zero_comm")]
    (document,) = _shard_documents(grid, count=1)
    document["version"] = "0.0.0"
    with pytest.raises(MergeError, match="version"):
        merge_documents([document], grid)


def test_merge_accepts_identical_duplicates():
    # Overlapping shards with byte-identical records merge idempotently
    # (a re-dispatched straggler may overlap the shard it replaced).
    grid = [_tiny("edge_zero_comm")]
    (document,) = _shard_documents(grid, count=1)
    merged = merge_documents([document, document], grid, check_complete=True)
    assert [r["scenario"] for r in merged] == [grid[0].name]


def test_merge_rejects_conflicting_duplicate():
    grid = [_tiny("edge_zero_comm")]
    (document,) = _shard_documents(grid, count=1)
    conflicting = json.loads(json.dumps(document))
    conflicting["results"][0]["total_bits"] = (
        document["results"][0]["total_bits"] + 1
    )
    with pytest.raises(MergeError, match="conflicting duplicate"):
        merge_documents([document, conflicting], grid)


def test_merge_rejects_unknown_coordinate():
    grid = [_tiny("edge_zero_comm")]
    (document,) = _shard_documents(grid, count=1)
    with pytest.raises(MergeError, match="not in"):
        merge_documents([document], [_tiny("vertex")])


def test_merge_rejects_seed_mismatch():
    grid = [_tiny("edge_zero_comm")]
    (document,) = _shard_documents(grid, count=1)
    document["results"][0]["seed"] += 1
    with pytest.raises(MergeError, match="seed"):
        merge_documents([document], grid)


def test_merge_rejects_mixed_reps():
    grid = _tiny_grid()
    count = 2
    documents = []
    for k in range(1, count + 1):
        shard = shard_scenarios(grid, k, count)
        records = sweep(shard, jobs=1, reps=k)  # shard 1 unreplicated, shard 2 reps=2
        documents.append(
            {
                "version": __version__,
                "results": [
                    {key: v for key, v in r.items() if key != "wall_time_s"}
                    for r in records
                ],
            }
        )
    with pytest.raises(MergeError, match="replication"):
        merge_documents(documents, grid, check_complete=True)


def test_merge_missing_shard_fails_completeness_check():
    grid = _tiny_grid()
    documents = _shard_documents(grid, count=2)
    with pytest.raises(MergeError, match="missing"):
        merge_documents(documents[:1], grid, check_complete=True)
    # Without the completeness check a partial merge is allowed and keeps
    # grid order.
    partial = merge_documents(documents[:1], grid, check_complete=False)
    kept = {r["scenario"] for r in partial}
    assert kept == {s.name for s in shard_scenarios(grid, 1, 2)}
    order = {s.name: i for i, s in enumerate(grid)}
    positions = [order[r["scenario"]] for r in partial]
    assert positions == sorted(positions)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


_FILTER = ["--filter", "edge_zero_comm"]
#: Both transports of the zero-comm smoke coordinates (twelve scenarios):
#: the two-way hash split leaves neither shard empty.
_SHARDED = [*_FILTER, "--transport", "all"]


def test_cli_sharded_sweep_and_merge_reproduce_serial(tmp_path, capsys):
    serial_out = tmp_path / "serial"
    assert main(
        ["sweep", "--smoke", *_SHARDED, "--jobs", "1", "--out", str(serial_out)]
    ) == 0
    shard_dirs = []
    for k in (1, 2):
        out = tmp_path / f"shard{k}"
        shard_dirs.append(str(out))
        code = main(
            ["sweep", "--smoke", *_SHARDED, "--jobs", "1",
             "--shard", f"{k}/2", "--out", str(out)]
        )
        assert code == 0
    merged_out = tmp_path / "merged"
    code = main(
        ["merge", *shard_dirs, "--smoke", *_SHARDED,
         "--check-complete", "--out", str(merged_out)]
    )
    assert code == 0
    assert "complete" in capsys.readouterr().out
    serial_doc = (serial_out / "sweep.json").read_bytes()
    assert (merged_out / "sweep.json").read_bytes() == serial_doc
    # Shard documents are tagged with their spec.
    shard_doc = json.loads((tmp_path / "shard1" / "sweep.json").read_text())
    assert shard_doc["shard"] == "1/2"


def test_cli_sweep_and_merge_custom_label(tmp_path):
    shard_dirs = []
    for k in (1, 2):
        out = tmp_path / f"shard{k}"
        shard_dirs.append(str(out))
        code = main(
            ["sweep", "--smoke", *_SHARDED, "--jobs", "1", "--label", "nightly",
             "--shard", f"{k}/2", "--out", str(out)]
        )
        assert code == 0
        assert (out / "nightly.json").exists()
    merged_out = tmp_path / "merged"
    code = main(
        ["merge", *shard_dirs, "--smoke", *_SHARDED, "--label", "nightly",
         "--check-complete", "--out", str(merged_out)]
    )
    assert code == 0
    assert (merged_out / "nightly.json").exists()


def test_cli_merge_rejects_incomplete_union(tmp_path, capsys):
    out = tmp_path / "shard1"
    assert main(
        ["sweep", "--smoke", *_SHARDED, "--jobs", "1", "--shard", "1/2",
         "--out", str(out)]
    ) == 0
    code = main(
        ["merge", str(out), "--smoke", *_SHARDED, "--check-complete",
         "--out", str(tmp_path / "merged")]
    )
    assert code == 1
    assert "missing" in capsys.readouterr().err


def test_cli_merge_unreadable_shard(tmp_path, capsys):
    code = main(
        ["merge", str(tmp_path / "nope"), "--smoke",
         "--out", str(tmp_path / "merged")]
    )
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_cli_sweep_rejects_bad_shard_spec(tmp_path, capsys):
    for spec in ("0/3", "4/3", "abc"):
        code = main(
            ["sweep", "--smoke", "--shard", spec, "--out", str(tmp_path)]
        )
        assert code == 2
    assert "shard" in capsys.readouterr().err


def test_cli_sweep_rejects_bad_reps(tmp_path, capsys):
    code = main(["sweep", "--smoke", "--reps", "0", "--out", str(tmp_path)])
    assert code == 2
    assert "--reps" in capsys.readouterr().err


def test_cli_empty_shard_writes_empty_document(tmp_path, capsys):
    # Narrow to one scenario, then ask for the shard it is NOT in.
    scenario = next(s for s in smoke_scenarios() if "edge_zero_comm" in s.name)
    pattern = scenario.name
    empty_k = 2 - shard_index(scenario.name, 2)  # the other 1-based shard
    code = main(
        ["sweep", "--smoke", "--filter", pattern, "--shard", f"{empty_k}/2",
         "--out", str(tmp_path)]
    )
    assert code == 0
    assert "holds no scenarios" in capsys.readouterr().out
    document = json.loads((tmp_path / "sweep.json").read_text())
    assert document["count"] == 0 and document["results"] == []


def test_cli_list_scenarios_shard(capsys):
    assert main(["list-scenarios", "--smoke"]) == 0
    full = set(capsys.readouterr().out.split())
    parts: list[set[str]] = []
    for k in (1, 2, 3):
        assert main(["list-scenarios", "--smoke", "--shard", f"{k}/3"]) == 0
        parts.append(set(capsys.readouterr().out.split()))
    assert set().union(*parts) == full
    assert sum(len(p) for p in parts) == len(full)


def test_cli_sweep_resume(tmp_path, capsys):
    out = tmp_path / "results"
    assert main(
        ["sweep", "--smoke", *_FILTER, "--jobs", "1", "--out", str(out)]
    ) == 0
    reference = (out / "sweep.json").read_bytes()
    journal = out / "journal.jsonl"
    lines = journal.read_text().splitlines()
    journal.write_text("\n".join(lines[:2]) + "\n")
    assert main(
        ["sweep", "--smoke", *_FILTER, "--jobs", "1", "--resume",
         "--out", str(out)]
    ) == 0
    assert "resuming: 2 scenarios" in capsys.readouterr().out
    assert (out / "sweep.json").read_bytes() == reference


def test_cli_sweep_reps(tmp_path, capsys):
    out = tmp_path / "results"
    assert main(
        ["sweep", "--smoke", *_FILTER, "--jobs", "1", "--reps", "2",
         "--out", str(out)]
    ) == 0
    document = json.loads((out / "sweep.json").read_text())
    record = document["results"][0]
    assert record["reps"] == 2 and len(record["rep_seeds"]) == 2
    assert "metrics" in record
    assert isinstance(record["n"], int)  # constants keep their type
