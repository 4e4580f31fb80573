"""One benchmark instance, from the generated graph to a validated coloring.

The harness drives the same public calls ``repro sweep`` makes for a
scenario coordinate — ``FAMILIES[...]`` on the ``workload`` stream,
``PARTITIONERS["random"]`` on the ``partition`` stream,
``EdgePartition.astype("csr")``, the ``run_*`` driver on
``Stream.from_seed(seed)`` with the ``count`` transport, and the
``is_proper_*_coloring`` validators — and times each from outside, so its
numbers describe :class:`~repro.engine.scenarios.Scenario` coordinates.

Load shape: a closed loop with one client.  One instance runs at a time
in one process, with no pool and no threads.  ``repro`` must already be
importable (``perfbench/run.py`` puts the measured tree's ``src`` first
on ``sys.path``).
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.edge_coloring import run_edge_coloring, run_zero_comm_edge_coloring
from repro.core.vertex_coloring import run_vertex_coloring
from repro.engine.scenarios import FAMILIES
from repro.graphs import (
    PARTITIONERS,
    is_proper_edge_coloring,
    is_proper_vertex_coloring,
)
from repro.rand import Stream, derived_random, kernels

from .tracing import SELF_LAYERS, Recorder, self_time_rows
from .workloads import Workload

__all__ = [
    "E2E_UNITS",
    "LAYER_UNITS",
    "Instance",
    "environment",
    "run_instance",
    "run_timed",
    "run_traced",
]

#: End-to-end metrics of an untraced run.  ``bits_per_vertex``, ``rounds``
#: and ``failed_frac`` are reported beside them but are not bounded
#: metrics: they read 0 on Theorem 3 and on a passing run respectively.
E2E_UNITS = {
    "total_s": "s",
    "solve_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of a traced run.
LAYER_UNITS = {
    "graphs.generate_s": "s",
    "graphs.partition_s": "s",
    "graphs.validate_s": "s",
    "graphs.setup_rss_mb": "MB",
    "graphs.n": "count",
    "graphs.m": "count",
    "graphs.max_degree": "count",
    "comm.party_s": "s",
    "comm.transport_s": "s",
    "comm.bits_per_vertex": "bits/n",
    "comm.bits_a2b": "bits",
    "comm.bits_b2a": "bits",
    "comm.messages": "count",
    "comm.rounds": "count",
    "comm.phase.random_color_trial.bits": "bits",
    "comm.phase.random_color_trial.rounds": "count",
    "comm.phase.d1lc_leftover.bits": "bits",
    "comm.phase.d1lc_leftover.rounds": "count",
    "rand.permutation_calls": "count",
    "rand.permutation_s": "s",
    "rand.batch_calls": "count",
    "rand.kernel_calls": "count",
    "rand.kernel_ratio": "ratio",
    "rct.s": "s",
    "rct.iterations": "count",
    "rct.samples": "count",
    "rct.leftover": "count",
    "rct.success_ratio": "ratio",
    "color_sample.s": "s",
    "color_sample.calls": "count",
    "probes.confirmation_s": "s",
    "d1lc.s": "s",
    "d1lc.samples": "count",
    "d1lc.surviving_s": "s",
    "d1lc.surviving_edges": "count",
    "d1lc.solve_s": "s",
    "d1lc.fallbacks": "count",
    "edge.defer_s": "s",
    "edge.matching_s": "s",
    "edge.deferred_edges": "count",
    "edge.palette_color_s": "s",
    "edge.peel_s": "s",
    "cover.build_s": "s",
    "cover.decode_s": "s",
    "cover.picks": "count",
    "cover.bits": "bits",
    "claims.rounds_ratio": "ratio",
    "trace.overhead_frac": "ratio",
    **{f"self.{layer}_s": "s" for layer in SELF_LAYERS},
}

#: Set-up is timed at least this many times per run (its median is
#: ``setup_s``), and more while the set-ups so far took under
#: ``SETUP_BUDGET_S`` in total — so a millisecond set-up is not one
#: noisy sample.
MIN_SETUPS = 3
MAX_SETUPS = 50
SETUP_BUDGET_S = 1.0

_DRIVERS = {
    "vertex": run_vertex_coloring,
    "edge": run_edge_coloring,
    "edge_zero_comm": run_zero_comm_edge_coloring,
}

_PALETTE = {
    "vertex": lambda delta: delta + 1,
    "edge": lambda delta: 2 * delta - 1,
    "edge_zero_comm": lambda delta: 2 * delta,
}


@dataclass
class Instance:
    """Timings, counts and verdict of one instance."""

    generate_s: float
    partition_s: float
    solve_s: float
    validate_s: float
    n: int
    m: int
    max_degree: int
    setup_rss_mb: float
    transcript: Any
    leftover: int | None
    problems: list[str] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return self.generate_s + self.partition_s

    @property
    def total_s(self) -> float:
        return self.setup_s + self.solve_s + self.validate_s

    @property
    def fingerprint(self) -> str:
        return self.transcript.fingerprint()


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def generate(workload: Workload, seed: int):
    """The workload graph, drawn exactly as the sweep runner draws it."""
    builder = FAMILIES[workload.family]
    params = dict(workload.params)
    if getattr(builder, "stream_native", False):
        return builder(Stream.from_seed(seed).derive("workload"), **params)
    return builder(derived_random(seed, "workload"), **params)


def partition(graph, seed: int):
    """The random edge split on its own stream, converted to csr."""
    return PARTITIONERS["random"](graph, derived_random(seed, "partition")).astype("csr")


def solve(workload: Workload, part, seed: int):
    """One driver call on the built partition."""
    return _DRIVERS[workload.protocol](
        part,
        rand=Stream.from_seed(seed),
        transport="count",
        **dict(workload.driver_kwargs),
    )


def check(workload: Workload, part, result) -> list[str]:
    """Problems with a driver result; empty when the coloring is correct."""
    problems = []
    delta = part.max_degree
    expected = _PALETTE[workload.protocol](delta)
    if result.num_colors != expected:
        problems.append(f"palette {result.num_colors}, theorem requires {expected}")
    if workload.protocol == "vertex":
        proper = is_proper_vertex_coloring(part.graph, result.colors, result.num_colors)
    else:
        proper = is_proper_edge_coloring(part.graph, result.colors, result.num_colors)
    if not proper:
        problems.append("coloring is not proper")
    if workload.protocol == "edge_zero_comm" and (result.total_bits or result.rounds):
        problems.append(
            f"Theorem 3 sent {result.total_bits} bits in {result.rounds} rounds"
        )
    return problems


def run_instance(workload: Workload, seed: int,
                 recorder: Recorder | None = None) -> Instance:
    """Generate, partition, solve and validate one instance.

    With a ``recorder`` every step is a span and the driver call runs
    with the layer wraps installed; without one the code is unmodified.
    """
    span = recorder.span if recorder is not None else (lambda _name: nullcontext())
    solving = recorder.solving if recorder is not None else nullcontext
    clock = time.perf_counter
    with span("instance"):
        with span("setup"):
            t0 = clock()
            with span("graphs.generate"):
                graph = generate(workload, seed)
            t1 = clock()
            with span("graphs.partition"):
                part = partition(graph, seed)
            t2 = clock()
        setup_rss = _rss_mb()
        with solving():
            result = solve(workload, part, seed)
        t3 = clock()
        with span("graphs.validate"):
            problems = check(workload, part, result)
        t4 = clock()
    return Instance(
        generate_s=t1 - t0,
        partition_s=t2 - t1,
        solve_s=t3 - t2,
        validate_s=t4 - t3,
        n=part.n,
        m=part.graph.m,
        max_degree=part.max_degree,
        setup_rss_mb=setup_rss,
        transcript=result.transcript,
        leftover=getattr(result, "leftover_size", None),
        problems=problems,
    )


def time_setup(workload: Workload, seed: int) -> float:
    """Seconds for one set-up alone (generate, partition, csr)."""
    start = time.perf_counter()
    partition(generate(workload, seed), seed)
    return time.perf_counter() - start


def transcript_problem(workload: Workload, seed: int,
                       first: Instance, inst: Instance) -> str | None:
    """Why ``inst``'s transcript is wrong, or None.

    Every run of a seed must reproduce the first instance's transcript
    fingerprint, and a default-seed run the workload's golden transcript.
    """
    if workload.golden is not None and seed == workload.default_seed:
        expected = workload.golden
    else:
        expected = (first.transcript.total_bits, first.transcript.rounds,
                    first.fingerprint)
    got = (inst.transcript.total_bits, inst.transcript.rounds, inst.fingerprint)
    if got == expected:
        return None
    return (f"seed {seed} transcript {got[0]} bits / {got[1]} rounds / {got[2]} "
            f"differs from {expected[0]} / {expected[1]} / {expected[2]}")


@dataclass
class RunResult:
    """What one benchmark process measured."""

    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    problems: list[str]
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def line(self) -> dict[str, Any]:
        """The result object printed as the run's last line."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def _attempt(workload: Workload, seed: int, instances: list[Instance],
             problems: list[str], recorder: Recorder | None = None) -> bool:
    """Run one instance into ``instances``; False if it failed."""
    try:
        inst = run_instance(workload, seed, recorder)
    except Exception:  # noqa: BLE001 - an instance that raises is a failure
        problems.append(traceback.format_exc(limit=4).strip())
        return False
    instances.append(inst)
    mismatch = transcript_problem(workload, seed, instances[0], inst)
    if mismatch:
        inst.problems.append(mismatch)
    if inst.problems:
        problems.extend(inst.problems)
        return False
    return True


def _summary(workload: Workload, seed: int, instances: list[Instance],
             attempted: int, failed: int) -> dict[str, Any]:
    info: dict[str, Any] = {"workload": workload.name, "seed": seed,
                            "failed_frac": failed / attempted}
    if instances:
        first = instances[0]
        info.update(
            n=first.n,
            m=first.m,
            max_degree=first.max_degree,
            bits_per_vertex=first.transcript.total_bits / first.n,
            rounds=first.transcript.rounds,
            fingerprint=first.fingerprint,
        )
    return info


def run_timed(workload: Workload, seed: int, seconds: float) -> RunResult:
    """Untraced instances for ``seconds`` (at least one): end-to-end metrics."""
    instances: list[Instance] = []
    problems: list[str] = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        attempted += 1
        if not _attempt(workload, seed, instances, problems):
            failed += 1
            break
        if time.perf_counter() - start >= seconds:
            break
    setups = [inst.setup_s for inst in instances]
    instances_done = [inst for inst in instances if not inst.problems]
    if not failed:
        gc.collect()
        while len(setups) < MIN_SETUPS or (
            sum(setups) < SETUP_BUDGET_S and len(setups) < MAX_SETUPS
        ):
            setups.append(time_setup(workload, seed))
    metrics: dict[str, tuple[float, str]] = {}
    if instances_done:
        metrics = {
            "total_s": statistics.median(i.total_s for i in instances_done),
            "solve_s": statistics.median(i.solve_s for i in instances_done),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": _rss_mb(),
        }
        metrics = {name: (value, E2E_UNITS[name]) for name, value in metrics.items()}
    info = _summary(workload, seed, instances, attempted, failed)
    info.update(instances=len(instances), setups=len(setups),
                total_s_all=[i.total_s for i in instances],
                setup_s_all=setups)
    return RunResult(attempted, failed, metrics, problems, info)


def _rounds_ratio(workload: Workload, inst: Instance) -> float:
    """rounds / (log2 log2 n · log2 Δ): Theorem 1's round bound, else 0."""
    if workload.protocol != "vertex" or inst.n < 4 or inst.max_degree < 2:
        return 0.0
    scale = math.log2(math.log2(inst.n)) * math.log2(inst.max_degree)
    return inst.transcript.rounds / scale


def layer_metrics(workload: Workload, rec: Recorder, inst: Instance,
                  untraced: Instance) -> dict[str, float]:
    """The per-layer metric values of one traced instance."""
    t = inst.transcript
    trial = t.phase_stats("random_color_trial")
    leftover_phase = t.phase_stats("d1lc_leftover")
    incl, counts = rec.inclusive, rec.counts
    samples = rec.calls["color_sample"] / 2  # one instance = both parties' calls
    rct_samples = counts["rct.samples"] / 2
    batch_calls = rec.calls["rand.batch"]
    colored_by_rct = inst.n - (inst.leftover or 0) if rec.calls["rct"] else 0
    values = {
        "graphs.generate_s": incl["graphs.generate"],
        "graphs.partition_s": incl["graphs.partition"],
        "graphs.validate_s": incl["graphs.validate"],
        "graphs.setup_rss_mb": untraced.setup_rss_mb,
        "graphs.n": inst.n,
        "graphs.m": inst.m,
        "graphs.max_degree": inst.max_degree,
        "comm.party_s": incl["comm.party"],
        "comm.transport_s": incl["solve"] - incl["comm.party"],
        "comm.bits_per_vertex": t.total_bits / inst.n,
        "comm.bits_a2b": t.bits_alice_to_bob,
        "comm.bits_b2a": t.bits_bob_to_alice,
        "comm.messages": t.messages,
        "comm.rounds": t.rounds,
        "comm.phase.random_color_trial.bits": trial.total_bits,
        "comm.phase.random_color_trial.rounds": trial.rounds,
        "comm.phase.d1lc_leftover.bits": leftover_phase.total_bits,
        "comm.phase.d1lc_leftover.rounds": leftover_phase.rounds,
        "rand.permutation_calls": counts["rand.permutation_calls"],
        "rand.permutation_s": incl["rand.permutation"],
        "rand.batch_calls": batch_calls,
        "rand.kernel_calls": counts["rand.batch_kernels"],
        "rand.kernel_ratio": (
            counts["rand.batch_kernels"] / batch_calls if batch_calls else 0.0
        ),
        "rct.s": incl["rct"],
        "rct.iterations": counts["rct.confirmations"] / 2,
        "rct.samples": rct_samples,
        "rct.leftover": inst.leftover if inst.leftover is not None else 0,
        "rct.success_ratio": colored_by_rct / rct_samples if rct_samples else 0.0,
        "color_sample.s": incl["color_sample"],
        "color_sample.calls": samples,
        "probes.confirmation_s": incl["probes.confirmation"],
        "d1lc.s": incl["d1lc"],
        "d1lc.samples": counts["d1lc.samples"] / 2,
        "d1lc.surviving_s": incl["d1lc.surviving"],
        "d1lc.surviving_edges": counts["d1lc.surviving_edges"],
        "d1lc.solve_s": incl["d1lc.solve"],
        "d1lc.fallbacks": rec.calls["d1lc.greedy"],
        "edge.defer_s": incl["edge.defer"],
        "edge.matching_s": incl["edge.matching"],
        "edge.deferred_edges": counts["edge.deferred_edges"],
        "edge.palette_color_s": incl["edge.palette_color"],
        "edge.peel_s": incl["edge.peel"],
        "cover.build_s": incl["cover.build"],
        "cover.decode_s": incl["cover.decode"],
        "cover.picks": counts["cover.picks"],
        "cover.bits": counts["cover.bits"],
        "claims.rounds_ratio": _rounds_ratio(workload, inst),
        "trace.overhead_frac": inst.total_s / untraced.total_s - 1.0,
    }
    for layer in SELF_LAYERS:
        values[f"self.{layer}_s"] = rec.self_time.get(layer, 0.0)
    return values


def run_traced(workload: Workload, seed: int,
               trace_path: str | Path | None = None) -> tuple[RunResult, list[dict]]:
    """One untraced then one traced instance: per-layer metrics.

    The untraced instance runs first in the fresh process, so it also
    gives the set-up memory high-water mark and the base of
    ``trace.overhead_frac``.  Returns the result and the self-time rows.
    """
    instances: list[Instance] = []
    problems: list[str] = []
    attempted, failed = 1, 0
    if not _attempt(workload, seed, instances, problems):
        failed += 1
    rec = Recorder()
    rows: list[dict] = []
    metrics: dict[str, tuple[float, str]] = {}
    if not failed:
        gc.collect()
        attempted += 1
        with rec.span("run"):
            ok = _attempt(workload, seed, instances, problems, rec)
            if ok:
                for phase, stats in sorted(instances[-1].transcript.phases.items()):
                    rec.event("phase", protocol=workload.protocol, phase=phase,
                              bits=stats.total_bits, rounds=stats.rounds)
                rows = self_time_rows(rec)
                for row in rows:
                    rec.event("layer", **row)
        if not ok:
            failed += 1
        else:
            values = layer_metrics(workload, rec, instances[-1], instances[0])
            metrics = {name: (float(values[name]), unit)
                       for name, unit in LAYER_UNITS.items()}
        if trace_path is not None:
            rec.write(trace_path)
    info = _summary(workload, seed, instances, attempted, failed)
    result = RunResult(attempted, failed, metrics, problems, info)
    return result, rows


def environment(tree: str | Path) -> dict[str, Any]:
    """The stamp that makes two results comparable (or flags them)."""
    import importlib.util

    tree = Path(tree).resolve()
    commit = None
    try:
        proc = subprocess.run(
            ["git", "-C", str(tree), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(tree.parent)},
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    numpy_spec = importlib.util.find_spec("numpy")
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy_spec is not None,
        "kernels": kernels.available(),
        "REPRO_NO_NUMPY": os.environ.get("REPRO_NO_NUMPY"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": sys.platform,
    }

