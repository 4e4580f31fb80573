"""Dispatcher unit + integration tests: packing, tailing, manifest, merge tree.

The fault-injection end-to-end suite lives in
``test_dispatch_fault_injection.py``; this file covers the pieces in
isolation plus one happy-path ``repro dispatch`` CLI run, pinned — like
everything in the distributed stack — to bit-for-bit equality with the
serial sweep.
"""

from __future__ import annotations

import json
import os
import shlex
from pathlib import Path

import pytest

from repro import __version__
from repro.__main__ import main
from repro.dispatch import (
    Coordinator,
    DispatchConfig,
    DispatchError,
    JournalTail,
    LocalExecutor,
    Manifest,
    MergeTree,
    ShardProgress,
    ShardState,
    SSHExecutor,
    grid_fingerprint,
    make_executor,
)
from repro.engine import (
    Scenario,
    build_document,
    default_scenarios,
    iter_scenarios,
    merge_documents,
    pack_shards,
    smoke_scenarios,
    sweep,
    write_results,
)


@pytest.fixture(autouse=True)
def _src_on_worker_path(monkeypatch):
    """Ensure dispatch worker subprocesses can import repro.

    The tier-1 invocation exports ``PYTHONPATH=src`` already; this keeps
    the suite working from any invocation (e.g. an installed package
    with a different cwd).
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    existing = os.environ.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        merged = f"{src}{os.pathsep}{existing}" if existing else src
        monkeypatch.setenv("PYTHONPATH", merged)


def _tiny(protocol: str, partition: str = "random", transport: str = "count") -> Scenario:
    return Scenario(
        family="regular",
        params=(("d", 4), ("n", 24)),
        partition=partition,
        protocol=protocol,
        transport=transport,
    )


# ---------------------------------------------------------------------------
# cost hints + weighted packing
# ---------------------------------------------------------------------------


def test_cost_hint_covers_every_registered_family():
    # Every coordinate in both curated grids gets a positive finite hint
    # from its family formula (no silent unit-cost fallbacks).
    for scenario in [*smoke_scenarios(), *default_scenarios()]:
        hint = scenario.cost_hint()
        assert hint > 1.0, scenario.name


def test_cost_hint_tracks_n_times_d():
    assert _tiny("vertex").cost_hint() == 24 * 4
    big = Scenario(
        family="regular",
        params=(("d", 8), ("n", 512)),
        partition="random",
        protocol="vertex",
    )
    assert big.cost_hint() == 512 * 8


def test_pack_shards_partitions_in_grid_order():
    grid = smoke_scenarios()
    shards = pack_shards(grid, 3)
    names = [s.name for shard in shards for s in shard]
    assert sorted(names) == sorted(s.name for s in grid)
    assert len(names) == len(set(names))
    order = {s.name: i for i, s in enumerate(grid)}
    for shard in shards:
        positions = [order[s.name] for s in shard]
        assert positions == sorted(positions)
    # Deterministic: same grid, same packing.
    assert [[s.name for s in shard] for shard in shards] == [
        [s.name for s in shard] for shard in pack_shards(grid, 3)
    ]


def test_pack_shards_isolates_a_dominant_scenario():
    # One coordinate dwarfing the rest must get a shard to itself while
    # the tiny ones spread over the other shards — the balance the hash
    # assignment cannot promise.
    huge = Scenario(
        family="regular",
        params=(("d", 8), ("n", 512)),
        partition="random",
        protocol="vertex",
    )
    tiny = [
        _tiny(protocol, partition=partition, transport=transport)
        for protocol in ("vertex", "edge")
        for transport in ("count", "strict")
        for partition in ("random", "all_alice")
    ]
    shards = pack_shards([huge, *tiny], 3)
    huge_shard = next(s for s in shards if any(x.name == huge.name for x in s))
    assert [x.name for x in huge_shard] == [huge.name]
    other_sizes = sorted(len(s) for s in shards if s is not huge_shard)
    assert other_sizes == [4, 4]


def test_pack_shards_with_more_shards_than_scenarios():
    grid = [_tiny("vertex"), _tiny("edge")]
    shards = pack_shards(grid, 5)
    assert sum(len(s) for s in shards) == 2
    assert sum(1 for s in shards if not s) == 3
    with pytest.raises(ValueError):
        pack_shards(grid, 0)


# ---------------------------------------------------------------------------
# sweep --scenario-file (explicit shard membership)
# ---------------------------------------------------------------------------


def test_cli_scenario_file_selects_exactly_the_listed_names(tmp_path):
    grid = [s for s in smoke_scenarios() if "edge_zero_comm" in s.name]
    chosen = [grid[0].name, grid[2].name]
    listing = tmp_path / "scenarios.txt"
    listing.write_text("# membership file\n" + "".join(f"{n}\n" for n in chosen))
    out = tmp_path / "out"
    assert main(
        ["sweep", "--smoke", "--scenario-file", str(listing),
         "--jobs", "1", "--out", str(out)]
    ) == 0
    document = json.loads((out / "sweep.json").read_text())
    assert [r["scenario"] for r in document["results"]] == [
        s.name for s in smoke_scenarios() if s.name in set(chosen)
    ]


def test_cli_scenario_file_rejects_unknown_names(tmp_path, capsys):
    listing = tmp_path / "scenarios.txt"
    listing.write_text("no/such/coordinate\n")
    code = main(
        ["sweep", "--smoke", "--scenario-file", str(listing),
         "--out", str(tmp_path / "out")]
    )
    assert code == 2
    assert "not in the" in capsys.readouterr().err


def test_cli_scenario_file_conflicts_with_shard(tmp_path, capsys):
    listing = tmp_path / "scenarios.txt"
    listing.write_text("")
    code = main(
        ["sweep", "--smoke", "--shard", "1/2",
         "--scenario-file", str(listing), "--out", str(tmp_path / "out")]
    )
    assert code == 2
    assert "mutually exclusive" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# journal tailing
# ---------------------------------------------------------------------------


def _entry(name: str, rep: int | None = None) -> str:
    entry = {"record": {"scenario": name}, "reps": 1, "scenario": name,
             "version": __version__}
    if rep is not None:
        entry["rep"] = rep
    return json.dumps(entry, sort_keys=True)


def test_journal_tail_is_incremental(tmp_path):
    path = tmp_path / "journal.jsonl"
    tail = JournalTail(path)
    assert tail.poll() == []  # file does not exist yet
    path.write_text(_entry("a") + "\n")
    assert [e["scenario"] for e in tail.poll()] == ["a"]
    assert tail.poll() == []  # nothing new
    with path.open("a") as handle:
        handle.write(_entry("b") + "\n" + _entry("c") + "\n")
    assert [e["scenario"] for e in tail.poll()] == ["b", "c"]


def test_journal_tail_withholds_torn_line_until_complete(tmp_path):
    path = tmp_path / "journal.jsonl"
    tail = JournalTail(path)
    line = _entry("a")
    path.write_text(line[: len(line) // 2])  # torn: no newline
    assert tail.poll() == []
    path.write_text(line + "\n")  # the append completed after all
    assert [e["scenario"] for e in tail.poll()] == ["a"]


def test_journal_tail_rewinds_on_truncation(tmp_path):
    # A fresh (non-resume) worker attempt truncates the journal; the
    # tail must restart from offset 0 instead of silently skipping.
    path = tmp_path / "journal.jsonl"
    tail = JournalTail(path)
    path.write_text(_entry("a") + "\n" + _entry("b") + "\n")
    assert len(tail.poll()) == 2
    path.write_text(_entry("c") + "\n")
    assert [e["scenario"] for e in tail.poll()] == ["c"]


def test_shard_progress_dedups_journal_rewrites(tmp_path):
    path = tmp_path / "journal.jsonl"
    progress = ShardProgress(7, path, total=2)
    path.write_text(_entry("a") + "\n")
    first = list(progress.poll())
    assert first == ["[shard 7] done a (1/2)"]
    # A resumed worker rewrites the journal: 'a' streams past again.
    path.write_text(_entry("a") + "\n" + _entry("b") + "\n")
    again = list(progress.poll())
    assert again == ["[shard 7] done b (2/2)"]
    # Rep-level entries surface as rep progress, not completions.
    with path.open("a") as handle:
        handle.write(_entry("c", rep=0) + "\n")
    assert list(progress.poll()) == ["[shard 7] c rep 1/1"]
    assert progress.done == {"a", "b"}


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------


def _manifest(tmp_path) -> Manifest:
    return Manifest(
        path=tmp_path / "dispatch.json",
        fingerprint=grid_fingerprint(["a", "b", "c"], 1, "sweep"),
        reps=1,
        label="sweep",
        assignment="hash",
        shards=[
            ShardState(shard_id=1, scenarios=["a", "b"], spec="1/2"),
            ShardState(shard_id=2, scenarios=["c"], spec="2/2", status="running",
                       attempts=1),
        ],
    )


def test_manifest_round_trips(tmp_path):
    manifest = _manifest(tmp_path)
    manifest.save()
    loaded = Manifest.load(manifest.path)
    assert loaded.fingerprint == manifest.fingerprint
    assert [s.to_json() for s in loaded.shards] == [
        s.to_json() for s in manifest.shards
    ]
    assert not loaded.complete
    # No temp file left behind by the atomic write.
    assert list(tmp_path.glob("*.tmp")) == []


def test_manifest_rejects_other_versions_and_torn_files(tmp_path):
    manifest = _manifest(tmp_path)
    manifest.save()
    document = json.loads(manifest.path.read_text())
    document["version"] = "0.0.0"
    manifest.path.write_text(json.dumps(document))
    with pytest.raises(DispatchError, match="version"):
        Manifest.load(manifest.path)
    manifest.path.write_text('{"torn": ')
    with pytest.raises(DispatchError, match="cannot read"):
        Manifest.load(manifest.path)


def test_manifest_resume_guards_fingerprint(tmp_path):
    manifest = _manifest(tmp_path)
    manifest.check_resumable(manifest.fingerprint)
    with pytest.raises(DispatchError, match="does not match"):
        manifest.check_resumable(grid_fingerprint(["a", "b"], 1, "sweep"))
    # Fingerprint is order-sensitive: grid order is part of the contract.
    assert grid_fingerprint(["a", "b"], 1, "x") != grid_fingerprint(["b", "a"], 1, "x")


def test_manifest_reset_interrupted_demotes_running_and_failed(tmp_path):
    manifest = _manifest(tmp_path)
    manifest.shards[0].status = "failed"
    manifest.reset_interrupted()
    assert [s.status for s in manifest.shards] == ["pending", "pending"]


# ---------------------------------------------------------------------------
# executors
# ---------------------------------------------------------------------------


def test_local_executor_command_shape():
    command = LocalExecutor(python="py").command(["--smoke", "--out", "x"])
    assert command == ["py", "-m", "repro", "sweep", "--smoke", "--out", "x"]


def test_ssh_executor_wraps_and_quotes():
    executor = SSHExecutor("worker1.example")
    command = executor.command(["--filter", "a b"])  # space must survive
    assert command[:3] == ["ssh", "-o", "BatchMode=yes"]
    assert command[3] == "worker1.example"
    assert shlex.split(command[4]) == [
        "python3", "-m", "repro", "sweep", "--filter", "a b",
    ]


def test_make_executor():
    assert isinstance(make_executor("local"), LocalExecutor)
    ssh = make_executor("ssh://host9")
    assert isinstance(ssh, SSHExecutor) and ssh.host == "host9"
    with pytest.raises(ValueError):
        make_executor("slurm://nope")
    with pytest.raises(ValueError):
        make_executor("ssh://")


# ---------------------------------------------------------------------------
# merge tree
# ---------------------------------------------------------------------------


def _shard_docs(grid, count):
    from repro.engine import shard_scenarios

    documents = []
    for k in range(1, count + 1):
        shard = shard_scenarios(grid, k, count)
        documents.append(build_document(sweep(shard, jobs=1)))
    return [d for d in documents if d["results"]]


def test_merge_tree_matches_flat_merge_any_arrival_order():
    grid = [
        _tiny("vertex"),
        _tiny("vertex", transport="strict"),
        _tiny("edge"),
        _tiny("edge_zero_comm"),
        _tiny("edge_zero_comm", partition="all_alice"),
    ]
    documents = _shard_docs(grid, 5)
    flat = merge_documents(documents, grid, check_complete=True)
    for order in (documents, documents[::-1], documents[2:] + documents[:2]):
        tree = MergeTree(grid)
        for document in order:
            tree.add(document)
        assert tree.finish(check_complete=True) == flat
    # Binary-counter fold count: n adds perform n - popcount(n) merges.
    tree = MergeTree(grid)
    for document in documents:
        tree.add(document)
    n = len(documents)
    assert tree.merges == n - bin(n).count("1")


def test_merge_tree_folds_idempotent_overlaps():
    grid = [_tiny("edge_zero_comm")]
    document = build_document(sweep(grid, jobs=1))
    tree = MergeTree(grid)
    tree.add(document)
    tree.add(json.loads(json.dumps(document)))  # overlapping re-dispatch
    assert [r["scenario"] for r in tree.finish()] == [grid[0].name]


# ---------------------------------------------------------------------------
# coordinator + CLI happy paths
# ---------------------------------------------------------------------------

_SELECTION = ["--smoke", "--filter", "edge_zero_comm", "--transport", "count"]


def _selected_grid():
    return list(
        iter_scenarios(
            smoke_scenarios(), pattern="edge_zero_comm", transport="count"
        )
    )


def _serial_bytes(tmp_path) -> bytes:
    json_path, _ = write_results(
        sweep(_selected_grid(), jobs=1), tmp_path / "serial"
    )
    return json_path.read_bytes()


def test_cli_dispatch_matches_serial_sweep(tmp_path):
    out = tmp_path / "out"
    code = main(
        ["dispatch", *_SELECTION, "--workers", "2", "--shards", "3",
         "--out", str(out), "--backoff", "0.1"]
    )
    assert code == 0
    assert (out / "sweep.json").read_bytes() == _serial_bytes(tmp_path)
    manifest = Manifest.load(out / "dispatch" / "dispatch.json")
    assert manifest.complete
    assert all(s.status == "done" for s in manifest.shards)
    # Shard workers left replayable journals + canonical partials behind.
    for shard in manifest.shards:
        shard_dir = out / "dispatch" / f"shard-{shard.shard_id:03d}"
        assert (shard_dir / "journal.jsonl").exists()
        assert (shard_dir / "sweep.json").exists()


def test_cli_dispatch_weighted_matches_serial_sweep(tmp_path):
    out = tmp_path / "out"
    code = main(
        ["dispatch", *_SELECTION, "--weighted", "--workers", "2",
         "--shards", "3", "--out", str(out)]
    )
    assert code == 0
    assert (out / "sweep.json").read_bytes() == _serial_bytes(tmp_path)
    manifest = Manifest.load(out / "dispatch" / "dispatch.json")
    assert manifest.assignment == "weighted"
    # Weighted shards ship explicit membership files to their workers.
    listings = list((out / "dispatch").glob("shard-*/scenarios.txt"))
    assert listings
    listed = {
        name
        for listing in listings
        for name in listing.read_text().split()
    }
    assert listed == {s.name for s in _selected_grid()}


def test_cli_dispatch_usage_errors(tmp_path, capsys):
    assert main(
        ["dispatch", "--smoke", "--executor", "slurm://x", "--out", str(tmp_path)]
    ) == 2
    assert main(
        ["dispatch", "--smoke", "--reps", "0", "--out", str(tmp_path)]
    ) == 2
    assert main(
        ["dispatch", "--smoke", "--filter", "no-such-scenario",
         "--out", str(tmp_path)]
    ) == 2
    # --resume without a manifest is a usage error, not a crash.
    assert main(
        ["dispatch", *_SELECTION, "--resume", "--out", str(tmp_path / "fresh")]
    ) == 2
    err = capsys.readouterr().err
    assert "unknown executor" in err and "manifest" in err


def test_coordinator_rejects_degenerate_configs(tmp_path):
    grid = _selected_grid()
    with pytest.raises(DispatchError, match="empty"):
        Coordinator(
            [], _SELECTION, tmp_path / "w", tmp_path / "o",
            LocalExecutor(), DispatchConfig(),
        )
    with pytest.raises(DispatchError, match="worker"):
        Coordinator(
            grid, _SELECTION, tmp_path / "w", tmp_path / "o",
            LocalExecutor(), DispatchConfig(workers=0),
        )
    with pytest.raises(DispatchError, match="shard"):
        Coordinator(
            grid, _SELECTION, tmp_path / "w", tmp_path / "o",
            LocalExecutor(), DispatchConfig(shards=0),
        )


def test_coordinator_default_shard_count_overshards(tmp_path):
    # 18 scenarios (3 protocols x 3 partitions x 2 transports)
    grid = list(
        iter_scenarios(smoke_scenarios(), pattern="/regular(", transport="all")
    )
    assert len(grid) == 18
    selection = ["--smoke", "--filter", "/regular(", "--transport", "all"]
    coordinator = Coordinator(
        grid, selection, tmp_path / "w", tmp_path / "o",
        LocalExecutor(), DispatchConfig(workers=2),
    )
    # M = min(4 x workers, grid size): M >> workers up to the grid size.
    assert coordinator.shard_count == 8
