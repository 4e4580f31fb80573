"""Measure one benchmark workload in this (fresh) process.

    python3 perfbench/run.py --workload vertex-social --seed 7 --seconds 20 --trace 0

``--trace 0`` runs untraced instances for ``--seconds`` (at least one)
and reports the end-to-end metrics.  ``--trace 1`` runs one untraced and
one traced instance and reports the per-layer metrics, prints the layer
self-time table and writes the spans to ``--trace-out`` (readable by
``repro trace FILE --check``).  ``--seed`` defaults to the workload's
scenario ``effective_seed``.  ``--tree`` names the checkout whose
``src/`` is measured (default: the checkout holding this file), so one
copy of this harness can time another commit.  ``--out`` also writes the
full record, stamped with the environment, as JSON.

Every coloring is validated.  The last line of standard output is the
result object ``{"correct", "attempted", "failed", "metrics"}``; the exit
status is 0 only if every instance was correct.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_repro(tree: Path) -> None:
    """Put ``tree/src`` first on ``sys.path`` and check ``repro`` comes from it."""
    src = (tree / "src").resolve()
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, not {src}")


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import ALL_WORKLOADS as WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tree", type=Path, default=ROOT)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)

    load_repro(args.tree)
    from perfbench import harness

    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    rows: list[dict] = []
    if args.trace:
        trace_out = args.trace_out or (
            ROOT / "perfbench" / "out" / f"trace-{workload.name}-{seed}.jsonl"
        )
        result, rows = harness.run_traced(workload, seed, trace_out)
    else:
        result = harness.run_timed(workload, seed, args.seconds)

    info = result.info
    print(f"{workload.name} seed {seed}: {result.attempted} attempted, "
          f"{result.failed} failed")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    if not args.trace:
        for name, unit in (("bits_per_vertex", "bits/n"), ("rounds", "count"),
                           ("failed_frac", "ratio")):
            if name in info:
                print(f"  {name:<40} {info[name]:>14.6g} {unit}")
    if rows:
        print(format_self_times(rows, result.metrics))
        print(f"  trace written to {trace_out}")
    for problem in result.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    if args.out is not None:
        record = {
            "environment": harness.environment(args.tree),
            "workload": workload.name,
            "seed": seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "result": result.line(),
            "info": info,
            "problems": result.problems,
            "self_times": rows,
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result.line()))
    return 0 if result.correct else 1


def format_self_times(rows: list[dict], metrics: dict) -> str:
    """The layer self-time table, top layer first, plus trace overhead."""
    total = sum(row["self_s"] for row in rows) or 1.0
    lines = [f"  {'layer':<22} {'self_s':>10} {'share':>7} {'incl_s':>10} {'calls':>9}"]
    for row in rows:
        lines.append(
            f"  {row['layer']:<22} {row['self_s']:>10.4f} "
            f"{row['self_s'] / total:>7.1%} {row['inclusive_s']:>10.4f} "
            f"{row['calls']:>9}"
        )
    overhead = metrics.get("trace.overhead_frac")
    if overhead is not None:
        lines.append(f"  trace.overhead_frac = {overhead[0]:.4f}")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
