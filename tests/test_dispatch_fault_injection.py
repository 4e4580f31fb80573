"""Fault-injection tests for ``repro dispatch``.

Each test here wounds the dispatcher in a specific way — a worker
SIGKILLed mid-shard, a torn journal tail, a hung straggler, the
coordinator itself dying between merges — and then asserts the headline
invariant: the final ``sweep.json`` is **bit-for-bit** identical to a
serial ``repro sweep`` over the same grid.  Not "equivalent", not
"same records": identical bytes.

The injection vehicle is :class:`ScriptedExecutor`, a
:class:`~repro.dispatch.LocalExecutor` that can replace chosen
``(shard, attempt)`` launches with a wrapper process running the real
sweep CLI in a daemon thread and then, once at least one scenario is
journaled, either SIGKILLing itself (a deterministic mid-shard crash)
or hanging forever (a deterministic straggler).  Determinism matters:
the faults land at a journal-visible instant every run, so these tests
cannot pass by the fault silently failing to fire.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.dispatch import (
    Coordinator,
    DispatchConfig,
    DispatchError,
    LocalExecutor,
    Manifest,
    WorkerHandle,
)
from repro.engine import iter_scenarios, smoke_scenarios, sweep, write_results


def _selection(transport: str) -> list[str]:
    return ["--smoke", "--filter", "edge_zero_comm", "--transport", transport]


SELECTION = _selection("count")

#: ``--transport all`` doubles the zero-comm smoke grid to twelve
#: scenarios, enough that a two-way hash split leaves both shards
#: non-empty — the tests that need a second, untouched shard run on it.
WIDE = "all"


@pytest.fixture(autouse=True)
def _src_on_worker_path(monkeypatch):
    src = str(Path(__file__).resolve().parents[1] / "src")
    existing = os.environ.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        merged = f"{src}{os.pathsep}{existing}" if existing else src
        monkeypatch.setenv("PYTHONPATH", merged)


def _grid(transport: str = "count"):
    return list(
        iter_scenarios(
            smoke_scenarios(), pattern="edge_zero_comm", transport=transport
        )
    )


def _serial_bytes(tmp_path: Path, transport: str = "count") -> bytes:
    json_path, _ = write_results(
        sweep(_grid(transport), jobs=1), tmp_path / "serial"
    )
    return json_path.read_bytes()


# The wrapper run in place of a real worker for wrapped (shard, attempt)
# pairs.  It drives the genuine ``repro sweep`` CLI in a daemon thread,
# waits until the shard journal holds at least one complete line (so the
# fault provably lands *mid-shard*, with journaled work to resume), then
# either SIGKILLs itself or hangs.
_WRAPPER = """
import os, signal, sys, threading, time

mode = sys.argv[1]
args = sys.argv[2:]
journal = os.path.join(args[args.index("--out") + 1], "journal.jsonl")

def journal_lines():
    try:
        with open(journal, "rb") as handle:
            return handle.read().count(b"\\n")
    except OSError:
        return 0

import repro.__main__ as cli
threading.Thread(target=cli.main, args=(["sweep", *args],), daemon=True).start()
while journal_lines() < 1:
    time.sleep(0.005)
if mode == "selfkill":
    os.kill(os.getpid(), signal.SIGKILL)
time.sleep(600)
"""


class ScriptedExecutor(LocalExecutor):
    """A local executor that can sabotage chosen (shard, attempt) launches."""

    def __init__(self) -> None:
        super().__init__()
        self.wrap: dict[tuple[int, int], str] = {}  # (shard, attempt) -> mode
        self.launched: list[tuple[int, int, list[str]]] = []
        self.handles: list[WorkerHandle] = []

    def launch(self, shard_id, attempt, sweep_args, log_path):
        self.launched.append((shard_id, attempt, list(sweep_args)))
        mode = self.wrap.get((shard_id, attempt))
        if mode is None:
            handle = super().launch(shard_id, attempt, sweep_args, log_path)
        else:
            log_path.parent.mkdir(parents=True, exist_ok=True)
            with log_path.open("ab") as log:
                process = subprocess.Popen(
                    [sys.executable, "-c", _WRAPPER, mode, *sweep_args],
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    stdin=subprocess.DEVNULL,
                )
            handle = WorkerHandle(
                shard_id=shard_id, attempt=attempt, process=process
            )
        self.handles.append(handle)
        return handle


def _coordinator(
    tmp_path: Path,
    executor,
    config: DispatchConfig,
    resume: bool = False,
    progress: list[str] | None = None,
    transport: str = "count",
) -> Coordinator:
    return Coordinator(
        _grid(transport),
        _selection(transport),
        work_dir=tmp_path / "work",
        out_dir=tmp_path / "out",
        executor=executor,
        config=config,
        progress=progress.append if progress is not None else None,
        resume=resume,
    )


def _biggest_shard(coordinator: Coordinator):
    return max(coordinator.manifest.shards, key=lambda s: len(s.scenarios))


def test_worker_sigkill_mid_shard_resumes_and_matches_serial(tmp_path):
    executor = ScriptedExecutor()
    progress: list[str] = []
    coordinator = _coordinator(
        tmp_path,
        executor,
        DispatchConfig(workers=2, shards=2, backoff=0.05),
        progress=progress,
    )
    victim = _biggest_shard(coordinator)
    assert len(victim.scenarios) >= 2  # the kill must leave work undone
    executor.wrap[(victim.shard_id, 1)] = "selfkill"

    _, json_path, _ = coordinator.run()

    assert json_path.read_bytes() == _serial_bytes(tmp_path)
    assert victim.attempts == 2
    assert any("journal-resumed" in m for m in progress)
    # Attempt 1 of a fresh dispatch starts clean; the post-kill retry
    # must replay the journal instead of redoing the whole shard.
    args_by_attempt = {
        (sid, attempt): args for sid, attempt, args in executor.launched
    }
    assert "--resume" not in args_by_attempt[(victim.shard_id, 1)]
    assert "--resume" in args_by_attempt[(victim.shard_id, 2)]
    # The wounded attempt journaled at least one scenario before dying.
    journal = coordinator.shard_dir(victim.shard_id) / "journal.jsonl"
    assert journal.exists()


def test_inject_kill_hook_fires_and_output_matches_serial(tmp_path):
    # The --inject-kill CI hook: hang the victim's first attempt after it
    # journals one scenario so the coordinator deterministically observes
    # a mid-flight worker to SIGKILL.
    executor = ScriptedExecutor()
    progress: list[str] = []
    config = DispatchConfig(workers=2, shards=2, backoff=0.05)
    coordinator = _coordinator(tmp_path, executor, config, progress=progress)
    victim = _biggest_shard(coordinator)
    executor.wrap[(victim.shard_id, 1)] = "hang"
    # --inject-kill K names the Kth live shard, not a raw shard id.
    config.inject_kill = coordinator.manifest.shards.index(victim) + 1

    _, json_path, _ = coordinator.run()

    assert json_path.read_bytes() == _serial_bytes(tmp_path)
    assert any("injected SIGKILL" in m for m in progress)
    assert victim.attempts == 2


def test_straggler_timeout_triggers_journal_resumed_redispatch(tmp_path):
    executor = ScriptedExecutor()
    progress: list[str] = []
    coordinator = _coordinator(
        tmp_path,
        executor,
        DispatchConfig(workers=2, shards=2, backoff=0.05, timeout=2.0),
        progress=progress,
    )
    victim = _biggest_shard(coordinator)
    executor.wrap[(victim.shard_id, 1)] = "hang"

    _, json_path, _ = coordinator.run()

    assert json_path.read_bytes() == _serial_bytes(tmp_path)
    assert any("straggler timeout" in m for m in progress)
    assert victim.attempts == 2
    # The straggler was killed, not left running.
    hung = next(h for h in executor.handles if h.attempt == 1
                and h.shard_id == victim.shard_id)
    assert hung.process.poll() is not None


def test_torn_journal_tail_is_dropped_on_resume(tmp_path):
    # Complete a dispatch, then rewind one shard to the state a crash
    # leaves behind: status "running", document gone, journal ending in a
    # torn (newline-less, half-written) line.  Resume must replay the
    # intact prefix, drop the torn tail, and still match serial bytes.
    coordinator = _coordinator(
        tmp_path,
        LocalExecutor(),
        DispatchConfig(workers=2, shards=2),
        transport=WIDE,
    )
    _, json_path, _ = coordinator.run()
    serial = _serial_bytes(tmp_path, WIDE)
    assert json_path.read_bytes() == serial

    manifest = Manifest.load(tmp_path / "work" / "dispatch.json")
    victim = max(manifest.shards, key=lambda s: len(s.scenarios))
    shard_dir = tmp_path / "work" / f"shard-{victim.shard_id:03d}"
    journal = shard_dir / "journal.jsonl"
    lines = journal.read_bytes().splitlines(keepends=True)
    assert len(lines) >= 2
    journal.write_bytes(lines[0] + lines[1][: len(lines[1]) // 2])
    (shard_dir / "sweep.json").unlink()
    victim.status = "running"
    manifest.complete = False
    manifest.save()
    json_path.unlink()

    progress: list[str] = []
    resumed = _coordinator(
        tmp_path,
        LocalExecutor(),
        DispatchConfig(workers=2, shards=2),
        resume=True,
        progress=progress,
        transport=WIDE,
    )
    _, json_path2, _ = resumed.run()

    assert json_path2.read_bytes() == serial
    assert resumed.launches == 1  # only the wounded shard reran
    assert any("already complete" in m for m in progress)
    # The rerun worker rewrote the journal with complete lines only.
    assert journal.read_bytes().endswith(b"\n")


def test_coordinator_crash_between_merges_then_resume(tmp_path):
    # Kill the coordinator (via the abort_after_merges hook) right after
    # the first shard document folds into the merge tree, while other
    # workers are still running.
    executor = ScriptedExecutor()
    config = DispatchConfig(workers=2, shards=3, abort_after_merges=1)
    coordinator = _coordinator(tmp_path, executor, config)
    total = len(coordinator.manifest.shards)

    with pytest.raises(DispatchError, match="abort_after_merges"):
        coordinator.run()

    # Clean shutdown: every launched worker was reaped on the way out.
    assert executor.handles
    assert all(h.process.poll() is not None for h in executor.handles)
    manifest = Manifest.load(tmp_path / "work" / "dispatch.json")
    done = [s for s in manifest.shards if s.status == "done"]
    assert len(done) == 1
    assert not manifest.complete
    assert not (tmp_path / "out" / "sweep.json").exists()

    progress: list[str] = []
    resumed = _coordinator(
        tmp_path,
        ScriptedExecutor(),
        DispatchConfig(workers=2, shards=3),
        resume=True,
        progress=progress,
    )
    _, json_path, _ = resumed.run()

    assert json_path.read_bytes() == _serial_bytes(tmp_path)
    # The merged shard was never relaunched: its document reloaded from
    # disk, and only the interrupted shards ran again.
    assert resumed.launches == total - 1
    assert any("already complete" in m for m in progress)
    assert Manifest.load(tmp_path / "work" / "dispatch.json").complete


def test_resume_with_changed_selection_is_refused(tmp_path):
    coordinator = _coordinator(
        tmp_path, LocalExecutor(), DispatchConfig(workers=1, shards=2)
    )
    coordinator.run()
    with pytest.raises(DispatchError, match="does not match"):
        Coordinator(
            _grid(),
            SELECTION,
            work_dir=tmp_path / "work",
            out_dir=tmp_path / "out",
            executor=LocalExecutor(),
            config=DispatchConfig(workers=1, shards=2, reps=3),  # reps changed
            resume=True,
        )
