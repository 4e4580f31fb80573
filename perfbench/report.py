"""Run every workload in fresh processes and write the committed report.

    python3 perfbench/report.py [--seconds 20] [--workload NAME ...] [--seed N]

For each workload, one ``run.py --trace 0`` process gives the end-to-end
metrics and then one ``run.py --trace 1`` process gives the per-layer
metrics and the layer self times, both on the workload's default seed
unless ``--seed`` is given.  Writes ``results.json`` (every record,
stamped with the environment) and ``layers.md`` (per workload: the
end-to-end metrics and the self-time table, top layer first) to
``--out-dir``.  Exits non-zero if any run failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"

#: End-to-end rows of the report: bounded metrics plus the exact counts.
E2E_ROWS = (
    ("total_s", "s"),
    ("solve_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("bits_per_vertex", "bits/n"),
    ("rounds", "count"),
    ("failed_frac", "ratio"),
)


def run_once(workload: str, seed: int | None, seconds: float, trace: int,
             out: Path, tree: Path = ROOT, timeout: float = 900.0) -> dict:
    """One ``run.py`` process; returns its ``--out`` record."""
    cmd = [sys.executable, str(RUN), "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace),
           "--tree", str(tree), "--out", str(out)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if trace:
        cmd += ["--trace-out", str(out.with_suffix(".jsonl"))]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if not out.is_file():
        raise RuntimeError(
            f"{workload} (trace {trace}) wrote no record; exit {proc.returncode}\n"
            f"{proc.stderr[-2000:]}"
        )
    record = json.loads(out.read_text())
    record["exit_code"] = proc.returncode
    record["stdout"] = proc.stdout
    return record


def markdown(records: list[dict]) -> str:
    """The per-workload report: end-to-end metrics and self-time tables."""
    env = records[0]["environment"]
    lines = [
        "# Benchmark report",
        "",
        "Generated by `python3 perfbench/report.py`.  End-to-end metrics come "
        "from an untraced process, the self-time table from a separate traced "
        "process on the same seed.",
        "",
        "Environment: " + ", ".join(f"{k}={v}" for k, v in sorted(env.items())),
        "",
    ]
    by_name: dict[str, dict[int, dict]] = {}
    for record in records:
        by_name.setdefault(record["workload"], {})[record["trace"]] = record
    for name, pair in by_name.items():
        timed, traced = pair.get(0), pair.get(1)
        info = timed["info"] if timed else traced["info"]
        lines += [
            f"## {name}",
            "",
            f"seed {info['seed']}, n={info.get('n')}, m={info.get('m')}, "
            f"Δ={info.get('max_degree')}",
            "",
        ]
        if timed:
            metrics = timed["result"]["metrics"]
            lines += ["| metric | value | unit |", "|---|---:|---|"]
            for metric, unit in E2E_ROWS:
                value = metrics[metric]["value"] if metric in metrics else info.get(metric)
                lines.append(f"| {metric} | {value:.6g} | {unit} |")
            lines.append("")
        if traced and traced["self_times"]:
            rows = traced["self_times"]
            total = sum(row["self_s"] for row in rows) or 1.0
            overhead = traced["result"]["metrics"]["trace.overhead_frac"]["value"]
            lines += [
                f"Top self-time layer: **{rows[0]['layer']}** "
                f"({rows[0]['self_s'] / total:.1%} of the traced instance); "
                f"trace.overhead_frac = {overhead:.3f}.",
                "",
                "| layer | self s | share | inclusive s | calls |",
                "|---|---:|---:|---:|---:|",
            ]
            for row in rows:
                lines.append(
                    f"| {row['layer']} | {row['self_s']:.4f} | "
                    f"{row['self_s'] / total:.1%} | {row['inclusive_s']:.4f} | "
                    f"{row['calls']} |"
                )
            lines.append("")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import ALL_WORKLOADS as WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out-dir", type=Path, default=HERE / "reports")
    parser.add_argument("--work-dir", type=Path, default=HERE / "out")
    args = parser.parse_args(argv)

    records = []
    for name in args.workload or list(WORKLOADS):
        for trace in (0, 1):
            out = args.work_dir / f"report-{name}-trace{trace}.json"
            record = run_once(name, args.seed, args.seconds, trace, out)
            print(record["stdout"], end="", flush=True)
            del record["stdout"]
            records.append(record)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    (args.out_dir / "results.json").write_text(
        json.dumps({"records": records}, indent=1, sort_keys=True) + "\n"
    )
    (args.out_dir / "layers.md").write_text(markdown(records) + "\n")
    return 0 if all(r["exit_code"] == 0 for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
