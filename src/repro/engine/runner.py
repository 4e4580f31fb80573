"""Sweep runner: execute scenarios serially or across worker processes.

Workloads are memoized per process: scenarios that share a (family,
params, seed) coordinate reuse the generated graph, and partitioned
instances are cached per (workload, partition scheme), so a sweep
over many protocols on the same workload builds it once instead of once
per scenario.  Each scenario runs on its own stable seed (a hash of its
name unless pinned), so results are independent of sweep order, filtering,
sharding, and the serial/parallel execution mode.

Replication (``reps > 1``) runs each scenario under ``rep_seed``-derived
seeds — independent workload *and* protocol randomness per rep — and
aggregates the numeric metrics (mean / stddev / 95% CI) through
:func:`repro.analysis.stats.summarize`.

Wall time never touches the records at all: every run reports its
elapsed seconds to :data:`repro.obs.metrics.WALL_CLOCK` (the out-of-band
single source of truth the tables read), so canonical documents are a
pure function of the grid with nothing left to strip.

Observability: each layer of a run opens a span on the installed
observer — ``sweep`` → ``scenario`` → ``rep`` → ``protocol`` — and
``progress`` receives structured :class:`SweepEvent` objects (their
``str()`` is the human-readable line the CLI prints).  With the default
:class:`~repro.obs.NullObserver`, every span is a shared no-op context;
none of this runs inside protocol loops.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Any, Callable, Iterable, Sequence

from ..graphs import EdgePartition, Graph, PARTITIONERS
from ..obs import get_observer
from ..obs.metrics import WALL_CLOCK
from ..rand import Stream, derived_random
from .scenarios import FAMILIES, PROTOCOLS, Scenario
from .sharding import Journal

__all__ = [
    "SweepEvent",
    "aggregate_reps",
    "build_partition",
    "build_workload",
    "run_scenario",
    "run_scenario_rep",
    "run_scenario_reps",
    "sweep",
]


@lru_cache(maxsize=256)
def _cached_workload(family: str, params: tuple, seed: int) -> Graph:
    builder = FAMILIES[family]
    if getattr(builder, "stream_native", False):
        # Large-scale families draw straight from the workload stream
        # (geometric-skip edge streams); same "workload" label, so the
        # derivation hierarchy is unchanged for every other family.
        return builder(Stream.from_seed(seed).derive("workload"), **dict(params))
    rng = derived_random(seed, "workload")
    return builder(rng, **dict(params))


def build_workload(scenario: Scenario) -> Graph:
    """The scenario's graph (memoized per process on family/params/seed)."""
    return _cached_workload(scenario.family, scenario.params, scenario.effective_seed)


@lru_cache(maxsize=256)
def _cached_partition(
    family: str, params: tuple, seed: int, partition: str
) -> EdgePartition:
    graph = _cached_workload(family, params, seed)
    # The partitioner draws from its own labelled stream so adding
    # partition schemes never perturbs workload generation.
    rng = derived_random(seed, "partition")
    return PARTITIONERS[partition](graph, rng)


def build_partition(scenario: Scenario) -> EdgePartition:
    """The scenario's partitioned instance.

    The partitioner emits an owner mask, one byte per edge in
    ``edges()`` order, over the graph the family builds; the side graphs
    are built from it on first use.
    """
    return _cached_partition(
        scenario.family,
        scenario.params,
        scenario.effective_seed,
        scenario.partition,
    )


def run_scenario(scenario: Scenario) -> dict[str, Any]:
    """Execute one scenario and return its flat JSON-ready result record.

    The record is canonical — a pure function of the scenario
    coordinate.  Elapsed wall time goes to :data:`WALL_CLOCK` (and, when
    an observer is installed, to the ``sweep.wall_time_s`` histogram),
    never into the record.
    """
    partition = build_partition(scenario)
    adapter = PROTOCOLS[scenario.protocol]
    obs = get_observer()
    start = time.perf_counter()
    with obs.span(
        "protocol",
        scenario=scenario.name,
        protocol=scenario.protocol,
        transport=scenario.transport,
    ):
        metrics = adapter.run(partition, scenario.effective_seed, scenario.transport)
    elapsed = time.perf_counter() - start
    WALL_CLOCK.record(scenario.name, elapsed)
    if obs.enabled:
        obs.observe("sweep.wall_time_s", elapsed)
    record: dict[str, Any] = {
        "scenario": scenario.name,
        "protocol": scenario.protocol,
        "family": scenario.family,
        "partition": scenario.partition,
        "backend": scenario.backend,
        "transport": scenario.transport,
        "seed": scenario.effective_seed,
        "n": partition.n,
        "m": partition.graph.m,
        "max_degree": partition.max_degree,
    }
    record.update(metrics)
    record["params"] = scenario.param_dict()
    return record


def run_scenario_rep(scenario: Scenario, rep: int) -> dict[str, Any]:
    """Execute one replication (0-based ``rep``) of a scenario.

    Rep 0 runs under the scenario's own seed, so an unreplicated sweep
    and replication 0 of a replicated one are the same record.
    """
    with get_observer().span("rep", scenario=scenario.name, rep=rep):
        return run_scenario(replace(scenario, seed=scenario.rep_seed(rep)))


def run_scenario_reps(
    scenario: Scenario,
    reps: int = 1,
    journal: "Journal | None" = None,
    on_rep: Callable[[int, dict[str, Any], float | None], None] | None = None,
) -> dict[str, Any]:
    """Execute ``reps`` independent replications and aggregate the metrics.

    ``reps == 1`` is exactly :func:`run_scenario`.  Otherwise each rep
    runs under ``scenario.rep_seed(r)`` — a fresh workload instance and
    protocol tape per rep — and the record carries every numeric metric
    as its across-rep mean, with full mean/std/CI summaries under
    ``"metrics"``.  ``valid`` is the conjunction over reps.

    With a ``journal``, each finished rep is journaled immediately and
    reps already journaled (a ``--resume`` replay of a crash
    mid-replication) are reused instead of rerun; the caller still
    journals the aggregate through the usual scenario-level append.
    ``on_rep(rep, record, elapsed)`` fires after each *freshly run* rep
    (not for replays) — the hook :func:`sweep` uses to surface per-rep
    progress events.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    with get_observer().span("scenario", scenario=scenario.name, reps=reps):
        if reps == 1:
            record = run_scenario(scenario)
            if on_rep is not None:
                on_rep(0, record, WALL_CLOCK.last(scenario.name))
            return record
        replayed = journal.partial.get(scenario.name, {}) if journal is not None else {}
        records = []
        for r in range(reps):
            record = replayed.get(r)
            if record is None:
                record = run_scenario_rep(scenario, r)
                elapsed = WALL_CLOCK.last(scenario.name)
                if journal is not None:
                    journal.append_rep(scenario.name, r, record, elapsed=elapsed)
                if on_rep is not None:
                    on_rep(r, record, elapsed)
            records.append(record)
        return aggregate_reps(scenario, records)


def aggregate_reps(
    scenario: Scenario, records: Sequence[dict[str, Any]]
) -> dict[str, Any]:
    """Reduce per-rep records (in rep order) to the scenario's aggregate.

    Pure function of the records, so aggregating freshly-run reps,
    journal-replayed reps, or pool-collected reps yields identical
    aggregates — the property rep-level resume and the dispatcher lean
    on.
    """
    reps = len(records)
    from ..analysis.stats import summarize  # deferred: numpy only when replicating

    base = records[0]
    aggregated: dict[str, Any] = {
        key: value
        for key, value in base.items()
        if not isinstance(value, (int, float)) or isinstance(value, bool)
    }
    metrics: dict[str, dict[str, float]] = {}
    for key, value in base.items():
        if key == "seed":
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        values = [r[key] for r in records]
        if all(v == values[0] for v in values):
            # Constant across reps (structural coordinates like n, and any
            # metric the protocol pins): keep the value — and its integer
            # type — rather than degrading it to a float mean with a
            # zero-width CI.
            aggregated[key] = value
            continue
        summary = summarize(values)
        metrics[key] = summary
        aggregated[key] = summary["mean"]
    aggregated["seed"] = scenario.effective_seed
    aggregated["reps"] = reps
    aggregated["rep_seeds"] = [scenario.rep_seed(r) for r in range(reps)]
    aggregated["valid"] = all(bool(r.get("valid")) for r in records)
    aggregated["metrics"] = metrics
    return aggregated


@dataclass(frozen=True)
class SweepEvent:
    """One structured progress notification from :func:`sweep`.

    ``kind`` is ``"rep"`` (one replication finished) or ``"scenario"``
    (a scenario's record — aggregate, under replication — is complete).
    ``elapsed`` is the unit's freshly measured wall seconds, ``None``
    when the unit was replayed from a journal rather than run.
    ``completed``/``total`` count scenarios (reps roll up into their
    scenario).  ``str(event)`` is the human-readable progress line, so
    any print-style consumer keeps working.
    """

    kind: str
    scenario: str
    reps: int
    ok: bool
    completed: int
    total: int
    rep: int | None = None
    elapsed: float | None = None

    def __str__(self) -> str:
        timing = f", {self.elapsed:.2f}s" if self.elapsed is not None else ""
        flag = "" if self.ok else " INVALID"
        if self.kind == "rep":
            return (
                f"{self.scenario} rep {int(self.rep or 0) + 1}/{self.reps}"
                f"{f' ({self.elapsed:.2f}s)' if self.elapsed is not None else ''}"
                f"{flag}"
            )
        return (
            f"done {self.scenario} ({self.completed}/{self.total}{timing}){flag}"
        )


def _rep_worker(
    task: tuple[Scenario, int]
) -> tuple[str, int, dict[str, Any], float | None]:
    """Picklable pool entry point for ``imap`` (one (scenario, rep) task).

    Returns the rep's elapsed seconds out-of-band so the coordinator can
    re-home the timing into its own :data:`WALL_CLOCK` — worker
    processes (and their wall-clock stores) die with the pool.
    """
    scenario, rep = task
    record = run_scenario_rep(scenario, rep)
    return scenario.name, rep, record, WALL_CLOCK.last(scenario.name)


def sweep(
    scenarios: Iterable[Scenario],
    jobs: int | None = None,
    progress: Callable[[SweepEvent], None] | None = None,
    reps: int = 1,
    journal: Journal | None = None,
) -> list[dict[str, Any]]:
    """Run scenarios, fanning out over a process pool when ``jobs > 1``.

    ``jobs`` defaults to the machine's CPU count.  The serial path is kept
    for single-core machines and debugging (no pickling, real tracebacks);
    it is also the path that produces full-depth traces, since pool
    workers cannot write into the coordinator's trace file.  Results come
    back in scenario order regardless of execution mode.

    ``progress`` receives :class:`SweepEvent` objects — a ``"rep"`` event
    per freshly finished replication and a ``"scenario"`` event per
    completed scenario.  Their ``str()`` is the printable progress line.

    The pool path streams (scenario, rep) completions through
    ``pool.imap_unordered`` (explicit chunksize), so ``progress`` fires
    and ``journal`` grows the moment each unit of work finishes — no
    head-of-line blocking behind a slow scenario, which is what makes
    mid-sweep crash recovery lose at most the rep in flight.  Scenarios
    already in ``journal.completed`` (a ``--resume`` replay) are not
    re-run, and under replication neither are journaled reps of
    partially-finished scenarios; replayed records fill the result list,
    which always comes back in scenario order.
    """
    scenario_list = list(scenarios)
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if jobs is None:
        jobs = os.cpu_count() or 1
    obs = get_observer()
    # Fresh timings for the scenarios this sweep runs: a process that
    # sweeps twice reports each sweep's own wall time, not a running sum.
    WALL_CLOCK.discard(s.name for s in scenario_list)
    results_by_name: dict[str, dict[str, Any]] = (
        dict(journal.completed) if journal is not None else {}
    )
    pending = [s for s in scenario_list if s.name not in results_by_name]
    total = len(scenario_list)

    def emit(kind: str, scenario: Scenario, ok: bool,
             rep: int | None = None, elapsed: float | None = None) -> None:
        if progress is not None:
            progress(
                SweepEvent(
                    kind=kind,
                    scenario=scenario.name,
                    reps=reps,
                    ok=ok,
                    completed=len(results_by_name),
                    total=total,
                    rep=rep,
                    elapsed=elapsed,
                )
            )

    def record_completion(scenario: Scenario, record: dict[str, Any]) -> None:
        results_by_name[scenario.name] = record
        elapsed = WALL_CLOCK.total(scenario.name)
        if journal is not None:
            journal.append(scenario.name, record, elapsed=elapsed)
        emit("scenario", scenario, bool(record.get("valid")), elapsed=elapsed)

    with obs.span("sweep", scenarios=total, reps=reps, jobs=jobs):
        if jobs <= 1 or len(pending) <= 1:
            for scenario in pending:
                on_rep = (
                    (lambda r, rec, el, s=scenario:
                     emit("rep", s, bool(rec.get("valid")), rep=r, elapsed=el))
                    if reps > 1
                    else None
                )
                record_completion(
                    scenario,
                    run_scenario_reps(
                        scenario, reps, journal=journal, on_rep=on_rep
                    ),
                )
        else:
            # Fan out at rep granularity: each pool task is one (scenario,
            # rep) run, aggregated on the coordinator side once all of a
            # scenario's reps are in.  Aggregation order is pinned to rep
            # order, so pool sweeps match serial sweeps bit for bit.
            by_name = {scenario.name: scenario for scenario in pending}
            rep_records: dict[str, dict[int, dict[str, Any]]] = {}
            tasks: list[tuple[Scenario, int]] = []
            for scenario in pending:
                replayed = (
                    journal.partial.get(scenario.name, {})
                    if journal is not None and reps > 1
                    else {}
                )
                rep_records[scenario.name] = dict(replayed)
                tasks.extend(
                    (scenario, r) for r in range(reps) if r not in replayed
                )

            def complete_rep(
                name: str, rep: int, record: dict[str, Any],
                elapsed: float | None,
            ) -> None:
                scenario = by_name[name]
                if elapsed is not None:
                    # Re-home the worker's timing on the coordinator.
                    WALL_CLOCK.record(name, elapsed)
                if reps == 1:
                    record_completion(scenario, record)
                    return
                collected = rep_records[name]
                if rep not in collected:
                    collected[rep] = record
                    if journal is not None:
                        journal.append_rep(name, rep, record, elapsed=elapsed)
                    emit("rep", scenario, bool(record.get("valid")),
                         rep=rep, elapsed=elapsed)
                if len(collected) == reps:
                    record_completion(
                        scenario,
                        aggregate_reps(
                            scenario, [collected[r] for r in range(reps)]
                        ),
                    )

            # Scenarios whose reps were all journaled (a crash between the
            # last rep and the aggregate append) need no tasks — aggregate
            # them up front.
            for scenario in pending:
                if reps > 1 and len(rep_records[scenario.name]) == reps:
                    record_completion(
                        scenario,
                        aggregate_reps(
                            scenario,
                            [rep_records[scenario.name][r] for r in range(reps)],
                        ),
                    )
            if tasks:
                workers = min(jobs, len(tasks))
                chunksize = max(1, len(tasks) // (workers * 4))
                with multiprocessing.Pool(processes=workers) as pool:
                    for name, rep, record, elapsed in pool.imap_unordered(
                        _rep_worker, tasks, chunksize=chunksize
                    ):
                        complete_rep(name, rep, record, elapsed)
    return [results_by_name[s.name] for s in scenario_list]
