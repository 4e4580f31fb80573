"""Command-line interface: ``python -m repro`` (or the ``repro`` script).

Subcommands:

``sweep``
    Run a scenario grid through :func:`repro.engine.sweep` and write
    ``sweep.json`` + ``sweep.md`` result files.  ``--smoke`` selects the
    small CI grid; ``--large`` the million-vertex tier (power-law
    social graphs at n = 10⁵ and 10⁶); ``--filter`` narrows any grid
    by name substring; ``--transport`` pins the comm transport (count /
    strict, or ``all``).
    ``--shard k/N`` runs only this machine's stable-hash shard of the
    grid; ``--reps R`` replicates every scenario under derived rep seeds
    with mean/stddev/CI aggregation; ``--resume`` replays
    ``<out>/journal.jsonl`` and runs only the coordinates a crashed or
    preempted sweep left unfinished.

``merge``
    Combine per-shard ``sweep.json`` documents into the unsharded
    document, verifying versions, seeds, and overlap identity —
    and, with ``--check-complete``, that the union covers the whole
    grid.  The re-rendered ``sweep.json`` is bit-for-bit identical to
    what one serial sweep would have written.

``dispatch``
    The in-repo distributed driver: split the grid into many shards
    (stable-hash by default, ``--weighted`` cost-packed), fan them out
    over ``--workers`` slots of a pluggable executor (``local``
    subprocesses or ``ssh://host``), tail shard journals for live
    per-scenario progress, survive worker kills / stragglers
    (``--timeout``, ``--retries``, exponential backoff, journal-resumed
    re-dispatch) and coordinator crashes (``dispatch.json`` manifest +
    ``--resume``), and tree-merge partial documents as shards finish.
    The merged ``sweep.json`` is bit-for-bit a serial sweep's.

``bench``
    One of two CI micro-benchmarks: ``--max-obs-overhead`` times
    Theorem 1 with observability off and on, under that ceiling;
    ``--rand`` times the numpy kernels of ``repro.rand`` against the
    pure-Python paths, with the ``--min-kernel-speedup`` floor.
    ``--json`` writes the rows to a machine-readable file.  Whole-run
    timing is ``perfbench``'s job.

``trace``
    Summarize or convert a trace file produced by ``--trace``: aggregate
    span and per-phase tables, ``--chrome`` export to Chrome
    ``trace_event`` JSON (loadable in Perfetto / ``chrome://tracing``),
    ``--json`` for the machine-readable summary, ``--check`` to fail on
    schema violations.

``list-scenarios``
    Print the scenario names a sweep would run, without running them.

``sweep``, ``dispatch``, and ``bench`` all accept ``--trace PATH`` /
``--metrics PATH`` to install an observer for the run.  Observability is
strictly out-of-band: the canonical result documents are byte-identical
with and without it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Sequence
from contextlib import nullcontext
from pathlib import Path

from .analysis.tables import format_table
from .engine import (
    Journal,
    MergeError,
    default_scenarios,
    iter_scenarios,
    kernel_comparison,
    large_scenarios,
    load_shard_document,
    merge_documents,
    obs_overhead,
    parse_shard_spec,
    results_table,
    shard_scenarios,
    smoke_scenarios,
    sweep,
    write_results,
)
from .obs import (
    observing,
    read_trace,
    summarize_phases,
    summarize_spans,
    to_chrome,
    validate_trace,
)

__all__ = ["main"]

_TRANSPORT_CHOICES = ("count", "strict")


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """The shared ``--trace`` / ``--metrics`` observability flags."""
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help=(
            "write a span/event trace (flushed JSONL) to PATH; summarize "
            "or convert it later with `repro trace` — canonical outputs "
            "are byte-identical with or without this flag"
        ),
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help=(
            "write a metrics JSON document (counters/gauges/histograms, "
            "comm telemetry, wall times) to PATH on exit"
        ),
    )


def _obs_context(args: argparse.Namespace):
    """An ``observing(...)`` context when either flag was given, else a no-op."""
    if args.trace is None and args.metrics is None:
        return nullcontext()
    return observing(trace=args.trace, metrics=args.metrics)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Round- and communication-efficient graph coloring (PODC 2025) — "
            "experiment engine"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep_p = sub.add_parser("sweep", help="run a scenario sweep")
    sweep_grid = sweep_p.add_mutually_exclusive_group()
    sweep_grid.add_argument(
        "--smoke",
        action="store_true",
        help="run the small CI grid instead of the full curated grid",
    )
    sweep_grid.add_argument(
        "--large",
        action="store_true",
        help=(
            "run the million-vertex tier (power-law social graphs at "
            "n=1e5 and n=1e6) instead of the curated grid; see "
            "ARCHITECTURE.md"
        ),
    )
    sweep_p.add_argument(
        "--filter",
        default=None,
        metavar="SUBSTR",
        help="only scenarios whose name contains SUBSTR",
    )
    sweep_p.add_argument(
        "--transport",
        choices=_TRANSPORT_CHOICES + ("all",),
        default="count",
        help="comm transport for every scenario (default: count)",
    )
    sweep_p.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (default: CPU count; 1 = serial)",
    )
    sweep_p.add_argument(
        "--out",
        default="results",
        metavar="DIR",
        help="directory for sweep.json / sweep.md (default: results/)",
    )
    sweep_p.add_argument(
        "--shard",
        default=None,
        metavar="K/N",
        help=(
            "run only shard K of N (1-based); assignment is a stable hash "
            "of each scenario name, so shards partition the grid and "
            "never reshuffle as scenarios are added"
        ),
    )
    sweep_p.add_argument(
        "--scenario-file",
        default=None,
        metavar="PATH",
        help=(
            "run only the scenario names listed in PATH (one per line, "
            "'#' comments allowed) — the explicit-membership alternative "
            "to --shard that cost-weighted dispatch shards use; every "
            "name must be in the selected grid"
        ),
    )
    sweep_p.add_argument(
        "--reps",
        type=int,
        default=1,
        metavar="R",
        help=(
            "replications per scenario under derived rep seeds, with "
            "mean/stddev/CI aggregation (default: 1 — no replication)"
        ),
    )
    sweep_p.add_argument(
        "--resume",
        action="store_true",
        help=(
            "replay <out>/journal.jsonl and skip already-completed "
            "scenarios (default: start fresh and truncate the journal)"
        ),
    )
    sweep_p.add_argument(
        "--label",
        default="sweep",
        metavar="NAME",
        help="basename of the result documents (default: sweep)",
    )
    _add_obs_flags(sweep_p)

    merge_p = sub.add_parser(
        "merge", help="combine shard sweep.json documents into one"
    )
    merge_p.add_argument(
        "shards",
        nargs="+",
        metavar="SHARD",
        help="shard sweep.json files (or the result dirs containing them)",
    )
    merge_grid = merge_p.add_mutually_exclusive_group()
    merge_grid.add_argument(
        "--smoke",
        action="store_true",
        help="shards were cut from the small CI grid (must match the sweeps)",
    )
    merge_grid.add_argument(
        "--large",
        action="store_true",
        help="shards were cut from the million-vertex grid",
    )
    merge_p.add_argument("--filter", default=None, metavar="SUBSTR")
    merge_p.add_argument(
        "--transport",
        choices=_TRANSPORT_CHOICES + ("all",),
        default="count",
    )
    merge_p.add_argument(
        "--check-complete",
        action="store_true",
        help="fail unless the shard union covers the entire scenario grid",
    )
    merge_p.add_argument(
        "--out",
        default="results",
        metavar="DIR",
        help="directory for the merged sweep.json / sweep.md",
    )
    merge_p.add_argument(
        "--label",
        default="sweep",
        metavar="NAME",
        help="basename of the shard and merged documents (default: sweep)",
    )

    dispatch_p = sub.add_parser(
        "dispatch",
        help="fan a sweep out over a worker pool with live merge",
        description=(
            "Split the scenario grid into many shards, run them across a "
            "worker pool (local subprocesses or ssh://host), tail each "
            "shard's journal for live progress, and tree-merge partial "
            "documents as shards finish.  Worker kills, stragglers, and "
            "coordinator crashes are survivable (--resume); the merged "
            "sweep.json is bit-for-bit identical to a serial sweep."
        ),
    )
    dispatch_grid = dispatch_p.add_mutually_exclusive_group()
    dispatch_grid.add_argument(
        "--smoke", action="store_true", help="the small CI grid"
    )
    dispatch_grid.add_argument(
        "--large", action="store_true", help="the million-vertex grid"
    )
    dispatch_p.add_argument("--filter", default=None, metavar="SUBSTR")
    dispatch_p.add_argument(
        "--transport",
        choices=_TRANSPORT_CHOICES + ("all",),
        default="count",
    )
    dispatch_p.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="concurrent worker slots (default: 2)",
    )
    dispatch_p.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="M",
        help=(
            "shard count; default 4x --workers (capped at the grid size) "
            "so one slow shard never serializes the sweep"
        ),
    )
    dispatch_p.add_argument(
        "--weighted",
        action="store_true",
        help=(
            "pack shards greedily by ~n*d cost hints instead of the "
            "default stable-hash assignment (balances uneven grids; "
            "hash stays the default for CI-matrix compatibility)"
        ),
    )
    dispatch_p.add_argument(
        "--executor",
        default="local",
        metavar="SPEC",
        help="'local' (default) or 'ssh://host' (shared filesystem assumed)",
    )
    dispatch_p.add_argument(
        "--reps", type=int, default=1, metavar="R", help="replications per scenario"
    )
    dispatch_p.add_argument(
        "--worker-jobs",
        type=int,
        default=1,
        metavar="N",
        help="process-pool size inside each worker (default: 1)",
    )
    dispatch_p.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECS",
        help=(
            "per-attempt straggler cap: kill and journal-resume a shard "
            "that runs longer (default: no timeout)"
        ),
    )
    dispatch_p.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="K",
        help="re-dispatches allowed per shard before giving up (default: 2)",
    )
    dispatch_p.add_argument(
        "--backoff",
        type=float,
        default=1.0,
        metavar="SECS",
        help="base of the exponential retry delay (default: 1.0)",
    )
    dispatch_p.add_argument(
        "--resume",
        action="store_true",
        help=(
            "reload <work-dir>/dispatch.json and continue: finished "
            "shards are merged from disk, interrupted ones rerun "
            "journal-resumed"
        ),
    )
    dispatch_p.add_argument(
        "--out",
        default="results",
        metavar="DIR",
        help="directory for the merged sweep.json / sweep.md (default: results/)",
    )
    dispatch_p.add_argument(
        "--work-dir",
        default=None,
        metavar="DIR",
        help="shard dirs + manifest location (default: <out>/dispatch)",
    )
    dispatch_p.add_argument(
        "--label",
        default="sweep",
        metavar="NAME",
        help="basename of the result documents (default: sweep)",
    )
    dispatch_p.add_argument(
        "--inject-kill",
        type=int,
        default=None,
        metavar="K",
        help=(
            "(testing/CI) SIGKILL the Kth live shard's first worker once "
            "it has journaled a scenario, to prove the kill+resume path"
        ),
    )
    _add_obs_flags(dispatch_p)

    bench_p = sub.add_parser(
        "bench", help="time observability overhead or the numpy kernels"
    )
    bench_p.add_argument(
        "--n",
        type=int,
        default=512,
        help="vertices (default 512; unused by --rand)",
    )
    bench_p.add_argument(
        "--degree",
        type=int,
        default=10,
        help="degree (default 10, the E4 workload; unused by --rand)",
    )
    bench_p.add_argument("--seed", type=int, default=42, help="workload seed")
    bench_p.add_argument(
        "--repeat", type=int, default=5, help="timing repetitions (best-of)"
    )
    bench_p.add_argument(
        "--rand",
        action="store_true",
        help="time the numpy kernels of repro.rand against the pure-Python paths",
    )
    bench_p.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the bench rows to PATH as JSON",
    )
    bench_p.add_argument(
        "--min-kernel-speedup",
        type=float,
        default=None,
        metavar="X",
        help=(
            "(with --rand) fail (exit 1) if any numpy-kernel batch op "
            "speeds up less than X over the pure-Python path; skipped "
            "with a note when numpy is unavailable"
        ),
    )
    bench_p.add_argument(
        "--max-obs-overhead",
        type=float,
        default=None,
        metavar="PCT",
        help=(
            "time Theorem 1 on the E4 workload with observability off "
            "and on, and fail (exit 1) if the enabled run costs more than "
            "PCT%% over the disabled one — the obs overhead ceiling"
        ),
    )
    _add_obs_flags(bench_p)

    trace_p = sub.add_parser(
        "trace", help="summarize or convert a --trace file"
    )
    trace_p.add_argument("path", metavar="TRACE", help="trace JSONL file")
    trace_p.add_argument(
        "--chrome",
        default=None,
        metavar="PATH",
        help=(
            "write Chrome trace_event JSON to PATH (load in Perfetto or "
            "chrome://tracing)"
        ),
    )
    trace_p.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the aggregate span/phase summary to PATH as JSON",
    )
    trace_p.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) if the trace violates the span schema",
    )

    list_p = sub.add_parser("list-scenarios", help="print scenario names")
    list_grid = list_p.add_mutually_exclusive_group()
    list_grid.add_argument(
        "--smoke", action="store_true", help="list the CI grid"
    )
    list_grid.add_argument(
        "--large", action="store_true", help="list the million-vertex grid"
    )
    list_p.add_argument("--filter", default=None, metavar="SUBSTR")
    list_p.add_argument(
        "--transport",
        choices=_TRANSPORT_CHOICES + ("all",),
        default="count",
    )
    list_p.add_argument(
        "--shard",
        default=None,
        metavar="K/N",
        help="list only shard K of N (same assignment as sweep --shard)",
    )

    return parser


def _select_scenarios(args: argparse.Namespace):
    if getattr(args, "large", False):
        grid = large_scenarios()
    elif args.smoke:
        grid = smoke_scenarios()
    else:
        grid = default_scenarios()
    return list(
        iter_scenarios(
            grid,
            pattern=args.filter,
            transport=getattr(args, "transport", None),
        )
    )


def _apply_shard(scenarios, spec: str | None):
    """Narrow a grid to one ``k/N`` shard; returns ``(scenarios, spec)``."""
    if spec is None:
        return scenarios, None
    index, count = parse_shard_spec(spec)
    return shard_scenarios(scenarios, index, count), f"{index}/{count}"


def _apply_scenario_file(scenarios, path: str | None):
    """Narrow a grid to the names listed in a shard-membership file.

    Keeps grid order (membership files carry *which* scenarios, the grid
    carries the canonical order); unknown names are an error so a stale
    file can never silently shrink a shard.
    """
    if path is None:
        return scenarios
    lines = Path(path).read_text().splitlines()
    wanted = {
        line.strip() for line in lines
        if line.strip() and not line.lstrip().startswith("#")
    }
    known = {s.name for s in scenarios}
    unknown = sorted(wanted - known)
    if unknown:
        raise ValueError(
            f"scenario file names {len(unknown)} coordinates not in the "
            f"selected grid (selection flags must match): {unknown[:3]}"
            + (" ..." if len(unknown) > 3 else "")
        )
    return [s for s in scenarios if s.name in wanted]


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenarios = _select_scenarios(args)
    if not scenarios:
        print("no scenarios match the filter", file=sys.stderr)
        return 2
    if args.reps < 1:
        print(f"error: --reps must be >= 1, got {args.reps}", file=sys.stderr)
        return 2
    if args.shard is not None and args.scenario_file is not None:
        print(
            "error: --shard and --scenario-file are mutually exclusive",
            file=sys.stderr,
        )
        return 2
    try:
        scenarios, shard = _apply_shard(scenarios, args.shard)
        scenarios = _apply_scenario_file(scenarios, args.scenario_file)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    journal = Journal(
        Path(args.out) / "journal.jsonl", resume=args.resume, reps=args.reps
    )
    try:
        if args.resume:
            resumed = sum(1 for s in scenarios if s.name in journal.completed)
            if resumed:
                print(f"resuming: {resumed} scenarios already journaled")
        if not scenarios:
            # An empty shard is a valid (if unlucky) cut of a small grid:
            # emit an empty document so the merge job still finds N inputs.
            which = f"shard {shard}" if shard else "scenario file"
            print(f"{which} holds no scenarios; writing empty document")
            json_path, md_path = write_results(
                [], args.out, label=args.label, shard=shard
            )
            print(f"wrote {json_path} and {md_path}")
            return 0
        label = f" (shard {shard})" if shard else ""
        print(f"running {len(scenarios)} scenarios{label} ...")
        with _obs_context(args):
            results = sweep(
                scenarios,
                jobs=args.jobs,
                progress=lambda event: print(f"  {event}", flush=True),
                reps=args.reps,
                journal=journal,
            )
    finally:
        journal.close()
    print(results_table(results))
    json_path, md_path = write_results(
        results, args.out, label=args.label, shard=shard
    )
    print(f"\nwrote {json_path} and {md_path}")
    invalid = [r["scenario"] for r in results if not r.get("valid")]
    if invalid:
        print(f"INVALID colorings in: {invalid}", file=sys.stderr)
        return 1
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    expected = _select_scenarios(args)
    if not expected:
        print("no scenarios match the filter", file=sys.stderr)
        return 2
    try:
        documents = [
            load_shard_document(path, label=args.label) for path in args.shards
        ]
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read shard document: {exc}", file=sys.stderr)
        return 2
    try:
        merged = merge_documents(
            documents, expected, check_complete=args.check_complete
        )
    except MergeError as exc:
        print(f"merge failed: {exc}", file=sys.stderr)
        return 1
    coverage = f"{len(merged)}/{len(expected)}"
    print(
        f"merged {len(documents)} shards: {coverage} coordinates"
        + (" (complete)" if len(merged) == len(expected) else "")
    )
    json_path, md_path = write_results(merged, args.out, label=args.label)
    print(f"wrote {json_path} and {md_path}")
    invalid = [r["scenario"] for r in merged if not r.get("valid")]
    if invalid:
        print(f"INVALID colorings in: {invalid}", file=sys.stderr)
        return 1
    return 0


def _selection_argv(args: argparse.Namespace) -> list[str]:
    """The grid-selection argv fragment shared by dispatch workers.

    Reconstructs exactly the flags ``_select_scenarios`` consumed, so a
    worker's ``repro sweep`` sees the same grid the coordinator split.
    """
    argv: list[str] = []
    if args.smoke:
        argv.append("--smoke")
    if args.large:
        argv.append("--large")
    if args.filter is not None:
        argv += ["--filter", args.filter]
    argv += ["--transport", args.transport]
    return argv


def _cmd_dispatch(args: argparse.Namespace) -> int:
    from .dispatch import Coordinator, DispatchConfig, DispatchError, make_executor

    scenarios = _select_scenarios(args)
    if not scenarios:
        print("no scenarios match the filter", file=sys.stderr)
        return 2
    if args.reps < 1:
        print(f"error: --reps must be >= 1, got {args.reps}", file=sys.stderr)
        return 2
    try:
        executor = make_executor(args.executor)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = DispatchConfig(
        workers=args.workers,
        shards=args.shards,
        weighted=args.weighted,
        reps=args.reps,
        label=args.label,
        worker_jobs=args.worker_jobs,
        timeout=args.timeout,
        retries=args.retries,
        backoff=args.backoff,
        inject_kill=args.inject_kill,
    )
    work_dir = Path(args.work_dir) if args.work_dir else Path(args.out) / "dispatch"
    try:
        coordinator = Coordinator(
            scenarios,
            _selection_argv(args),
            work_dir=work_dir,
            out_dir=args.out,
            executor=executor,
            config=config,
            progress=lambda message: print(f"  {message}", flush=True),
            resume=args.resume,
        )
    except DispatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"dispatching {len(scenarios)} scenarios over "
        f"{len(coordinator.manifest.shards)} shards "
        f"({coordinator.manifest.assignment} assignment, "
        f"{config.workers} workers, executor {args.executor}) ..."
    )
    try:
        with _obs_context(args):
            records, json_path, md_path = coordinator.run()
    except DispatchError as exc:
        print(f"dispatch failed: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print(
            "\ninterrupted: workers killed; journals and the manifest "
            f"survive under {work_dir} — rerun with --resume to continue",
            file=sys.stderr,
        )
        return 130
    print(results_table(records))
    print(f"\nwrote {json_path} and {md_path}")
    invalid = [r["scenario"] for r in records if not r.get("valid")]
    if invalid:
        print(f"INVALID colorings in: {invalid}", file=sys.stderr)
        return 1
    return 0


def _write_bench_json(rows, path: str, label: str) -> None:
    document = {"bench": label, "rows": rows}
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")


def _floor_holds(value: float, floor: float) -> bool:
    """``value >= floor`` for a finite ``value``; NaN and inf never pass."""
    return math.isfinite(value) and value >= floor


def _cmd_bench(args: argparse.Namespace) -> int:
    obs_mode = args.max_obs_overhead is not None
    if obs_mode and args.rand:
        print(
            "error: --max-obs-overhead and --rand are mutually exclusive",
            file=sys.stderr,
        )
        return 2
    if not (obs_mode or args.rand):
        print(
            "error: bench needs a mode: --max-obs-overhead PCT or --rand",
            file=sys.stderr,
        )
        return 2
    if args.repeat < 1:
        print(f"error: --repeat must be >= 1, got {args.repeat}", file=sys.stderr)
        return 2
    if args.min_kernel_speedup is not None and not args.rand:
        print(
            "error: --min-kernel-speedup only applies to --rand "
            "(the numpy kernel regression guard)",
            file=sys.stderr,
        )
        return 2

    if args.rand:
        with _obs_context(args):
            rows = kernel_comparison(seed=args.seed, repeat=args.repeat)
        if not rows:
            print("numpy kernel backend unavailable — pure-Python paths only")
        else:
            table_rows = [
                [
                    r["op"],
                    f"{r['pure_s'] * 1e3:.3f}",
                    f"{r['kernel_s'] * 1e3:.3f}",
                    f"{r['speedup']:.2f}x",
                ]
                for r in rows
            ]
            print(
                format_table(
                    ["op", "pure python (ms)", "numpy kernel (ms)", "speedup"],
                    table_rows,
                    title="numpy kernel backend — batch draws above dispatch thresholds",
                )
            )
        if args.json:
            _write_bench_json(rows, args.json, "kernel_comparison")
        if args.min_kernel_speedup is not None:
            if not rows:
                print(
                    "kernel guard skipped: numpy unavailable, nothing to floor"
                )
            else:
                worst_kernel = min(r["speedup"] for r in rows)
                if not _floor_holds(worst_kernel, args.min_kernel_speedup):
                    print(
                        f"REGRESSION: kernel batch speedup {worst_kernel:.2f}x "
                        f"is below the {args.min_kernel_speedup:.2f}x floor",
                        file=sys.stderr,
                    )
                    return 1
                print(
                    f"kernel guard: batch speedup {worst_kernel:.2f}x >= "
                    f"{args.min_kernel_speedup:.2f}x floor"
                )
        return 0

    try:
        with _obs_context(args):
            row = obs_overhead(
                n=args.n, d=args.degree, seed=args.seed, repeat=args.repeat
            )
    except ValueError as exc:
        print(f"error: infeasible workload: {exc}", file=sys.stderr)
        return 2
    overhead = row["obs_overhead"] * 100.0
    print(
        format_table(
            ["protocol", "obs off (ms)", "obs on (ms)", "overhead"],
            [[
                row["protocol"],
                f"{row['count_s'] * 1e3:.3f}",
                f"{row['obs_enabled_s'] * 1e3:.3f}",
                f"{overhead:.1f}%",
            ]],
            title=(
                f"observability overhead — E4 workload "
                f"(n={args.n}, d={args.degree}, seed={args.seed}, transport=count)"
            ),
        )
    )
    if args.json:
        _write_bench_json([row], args.json, "obs_overhead")
    if not (math.isfinite(overhead) and overhead <= args.max_obs_overhead):
        print(
            f"REGRESSION: enabled-observer overhead {overhead:.1f}% "
            f"on Theorem 1 exceeds the "
            f"{args.max_obs_overhead:.1f}% ceiling",
            file=sys.stderr,
        )
        return 1
    print(
        f"obs overhead guard: {overhead:.1f}% <= "
        f"{args.max_obs_overhead:.1f}% ceiling"
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    path = Path(args.path)
    if not path.exists():
        print(f"error: no such trace file: {path}", file=sys.stderr)
        return 2
    entries = read_trace(path)
    if not entries:
        print(f"error: {path} contains no trace entries", file=sys.stderr)
        return 2
    problems = validate_trace(entries)
    for problem in problems:
        print(f"trace schema: {problem}", file=sys.stderr)
    if args.check and problems:
        return 1
    spans = summarize_spans(entries)
    if spans:
        print(
            format_table(
                ["span", "count", "total (s)", "mean (s)", "max (s)"],
                [
                    [
                        s["span"],
                        str(s["count"]),
                        f"{s['total_s']:.6f}",
                        f"{s['mean_s']:.6f}",
                        f"{s['max_s']:.6f}",
                    ]
                    for s in spans
                ],
                title=f"span summary — {path.name}",
            )
        )
    phases = summarize_phases(entries)
    if phases:
        print(
            format_table(
                ["protocol", "phase", "runs", "bits", "rounds"],
                [
                    [
                        p["protocol"],
                        p["phase"],
                        str(p["runs"]),
                        str(p["bits"]),
                        str(p["rounds"]),
                    ]
                    for p in phases
                ],
                title="per-phase communication (from phase instant events)",
            )
        )
    if args.chrome:
        chrome_path = Path(args.chrome)
        chrome_path.parent.mkdir(parents=True, exist_ok=True)
        chrome_path.write_text(
            json.dumps(to_chrome(entries), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote Chrome trace_event JSON to {chrome_path}")
    if args.json:
        json_path = Path(args.json)
        json_path.parent.mkdir(parents=True, exist_ok=True)
        json_path.write_text(
            json.dumps(
                {"spans": spans, "phases": phases, "problems": problems},
                indent=2,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )
        print(f"wrote trace summary JSON to {json_path}")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    try:
        scenarios, _ = _apply_shard(_select_scenarios(args), args.shard)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for scenario in scenarios:
        print(scenario.name)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "merge":
        return _cmd_merge(args)
    if args.command == "dispatch":
        return _cmd_dispatch(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "list-scenarios":
        return _cmd_list(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
