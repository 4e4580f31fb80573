"""Time two checkouts with this same harness, alternating which runs first.

    git worktree add ../parent HEAD~1
    python3 perfbench/ab.py --base ../parent --head . --workload vertex-social \\
        --pairs 10 --seeds 101 102 103

Each pair runs ``run.py --trace 0`` once per side in a fresh process, on
the same seed, with this checkout's harness measuring the other tree's
``src/`` (``--tree``).  Even pairs run the base first, odd pairs the
head.  Per end-to-end metric it prints both sides' median and quartiles
and how many pairs the head won (ties count for neither).  It flags
pairs whose transcripts differ (the change altered protocol behaviour)
and results whose environment stamps differ, since those do not compare.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Stamp fields that must match for two results to be compared.
COMPARABLE = ("python", "numpy", "kernels", "REPRO_NO_NUMPY", "nproc", "cpu_model",
              "platform")


def stamp_differences(a: dict[str, Any], b: dict[str, Any]) -> list[str]:
    """The stamp fields (commit aside) on which two results differ."""
    return [key for key in COMPARABLE if a.get(key) != b.get(key)]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench.report import run_once
    from perfbench.workloads import ALL_WORKLOADS as WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--head", type=Path, default=ROOT)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=int, nargs="*", default=None,
                        help="seeds, cycled over the pairs (default: the workload's)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--work-dir", type=Path, default=HERE / "out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())
              ["end_to_end"]}
    sides = {"base": args.base.resolve(), "head": args.head.resolve()}
    values: dict[str, dict[str, list[float]]] = {"base": {}, "head": {}}
    stamps: dict[str, dict] = {}
    failures = 0
    for pair in range(args.pairs):
        seed = args.seeds[pair % len(args.seeds)] if args.seeds else None
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        prints = {}
        for side in order:
            out = args.work_dir / f"ab-{args.workload}-{pair}-{side}.json"
            record = run_once(args.workload, seed, args.seconds, 0, out,
                              tree=sides[side])
            failures += record["exit_code"] != 0
            stamps.setdefault(side, record["environment"])
            prints[side] = record["info"].get("fingerprint")
            for name, metric in record["result"]["metrics"].items():
                values[side].setdefault(name, []).append(metric["value"])
        if prints["base"] != prints["head"]:
            print(f"pair {pair} (seed {seed}): transcripts differ "
                  f"{prints['base']} != {prints['head']}")

    differing = stamp_differences(stamps["base"], stamps["head"])
    if differing:
        print("WARNING: environment stamps differ on "
              + ", ".join(f"{k} ({stamps['base'].get(k)} vs {stamps['head'].get(k)})"
                          for k in differing)
              + "; these results do not compare")
    print(f"{args.workload}: {args.pairs} pairs, base {stamps['base'].get('commit')}, "
          f"head {stamps['head'].get('commit')}")
    print(f"  {'metric':<14} {'base q1/med/q3':>30} {'head q1/med/q3':>30} "
          f"{'head wins':>10} {'bound':>6}")
    for name, spec in bounds.items():
        base, head = values["base"].get(name), values["head"].get(name)
        if not base or not head:
            continue
        lower = spec["better"] == "lower"
        wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        fmt = "{:.4g}/{:.4g}/{:.4g}"
        print(f"  {name:<14} {fmt.format(*quartiles(base)):>30} "
              f"{fmt.format(*quartiles(head)):>30} {wins:>5}/{len(head):<4} "
              f"{spec['bound']:>6}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
