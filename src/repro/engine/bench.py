"""Observability and kernel benchmarks on shared workloads.

``medium_workload`` is the ``medium_partition`` workload of the benchmark
suite (random d-regular, n=512, d=8, seed=42), built through the engine's
scenario cache.

``obs_overhead`` times Theorem 1 on the E4 edge-scaling workload (random
d-regular, n=512, d=10) with observability off and on — the row behind
the ``bench --max-obs-overhead`` CI ceiling.

``kernel_comparison`` times the numpy kernels of ``repro.rand`` against
the pure-Python paths they are bit-for-bit equal to.  Whole-run timing
against an earlier commit is ``perfbench``'s job (``perfbench/ab.py``),
not this module's.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from ..core.vertex_coloring import run_vertex_coloring
from ..graphs import (
    EdgePartition,
    configuration_model_graph,
    power_law_degree_sequence,
)
from ..rand import Stream, derive_keys
from ..rand.perm import permutation_tables
from .runner import build_partition
from .scenarios import Scenario

__all__ = ["kernel_comparison", "medium_workload", "obs_overhead"]


def medium_workload(n: int = 512, d: int = 8, seed: int = 42) -> EdgePartition:
    """The benchmark suite's shared workload (randomly partitioned d-regular).

    Routed through the engine's scenario cache, so ``obs_overhead`` and the
    ``medium_partition`` pytest fixture build their instances exactly as a
    sweep would.
    """
    scenario = Scenario(
        family="regular",
        params=(("d", d), ("n", n)),
        partition="random",
        protocol="vertex",
        seed=seed,
    )
    return build_partition(scenario)


def _time(fn: Callable[[], Any], repeat: int) -> float:
    """Best-of-``repeat`` wall time in seconds (min damps scheduler noise)."""
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _plain(value: Any) -> Any:
    """``value`` with numpy vectors and ``array('q')`` buffers as lists."""
    if isinstance(value, tuple):
        return tuple(map(_plain, value))
    tolist = getattr(value, "tolist", None)
    return value if tolist is None else tolist()


def kernel_comparison(seed: int = 42, repeat: int = 5) -> list[dict[str, Any]]:
    """Rows of ``{op, pure_s, kernel_s, speedup}`` — pure Python vs numpy.

    Times the exact :class:`repro.rand.Stream` entry points on batch sizes
    above the kernel dispatch thresholds, once with the numpy backend live
    and once under :class:`repro.rand.kernels.disabled` — the same escape
    hatch ``REPRO_NO_NUMPY=1`` flips.  Both arms draw bit-for-bit identical
    values (the kernels' parity contract), so the ratio is pure backend
    speed; one untimed call per arm checks that, and a disagreement
    raises ``RuntimeError``.  Returns ``[]`` when numpy is unavailable;
    the CLI's ``--min-kernel-speedup`` floor guards these rows in CI.
    """
    from ..rand import kernels

    if not kernels.available():
        return []

    cases: list[tuple[str, Callable[[], Any]]] = [
        (
            "kernel: biased coins k=4096 p=0.3",
            lambda: Stream.from_seed(seed, "bench-coins").coins(4096, 0.3),
        ),
        (
            "kernel: ints k=4096 range 1e6",
            lambda: Stream.from_seed(seed, "bench-ints").ints(4096, 0, 1_000_000),
        ),
        (
            "kernel: sample_indices m=65536 p=0.05",
            lambda: Stream.from_seed(seed, "bench-mask").sample_indices(65536, 0.05),
        ),
        (
            "kernel: feistel materialize m=4097",
            lambda: Stream.from_seed(seed, "bench-perm").permutation(4097).materialize(),
        ),
        (
            # The social family's two draws: the stub shuffle's swap
            # indices and the power-law degrees.
            "kernel: shuffled k=4096",
            lambda: Stream.from_seed(seed, "bench-shuffle").shuffled(range(4096)),
        ),
        (
            "kernel: power-law degrees n=4096",
            lambda: power_law_degree_sequence(
                4096, 2.3, 64, Stream.from_seed(seed, "bench-degrees")
            ),
        ),
        (
            # One Color-Sample fan-out's palette tables, from the parent
            # key and the instance labels.
            "kernel: derived permutation tables K=4096 m=17",
            lambda: permutation_tables(
                derive_keys(Stream.from_seed(seed, "bench-tables").key, range(4096)),
                17,
            ),
        ),
        (
            # One Random-Color-Trial iteration's row gather: half the
            # vertices of a social graph awake.
            "kernel: gather rows social n=4096 awake=2048",
            lambda: rows_graph.gather_rows(awake),
        ),
    ]
    rows_graph = configuration_model_graph(
        power_law_degree_sequence(
            4096, 2.3, 64, Stream.from_seed(seed, "bench-rows-degrees")
        ),
        Stream.from_seed(seed, "bench-rows-pairing"),
    )
    awake = list(range(0, 4096, 2))

    rows = []
    for name, fn in cases:
        kernel_out = _plain(fn())
        with kernels.disabled():
            pure_out = _plain(fn())
        if kernel_out != pure_out:
            raise RuntimeError(f"{name}: the numpy and pure paths disagree")
        kernel_s = _time(fn, repeat)
        with kernels.disabled():
            pure_s = _time(fn, repeat)
        rows.append(
            {
                "op": name,
                "seed": seed,
                "pure_s": pure_s,
                "kernel_s": kernel_s,
                "speedup": pure_s / kernel_s if kernel_s > 0 else float("inf"),
            }
        )
    return rows


def obs_overhead(
    n: int = 512, d: int = 10, seed: int = 42, repeat: int = 3
) -> dict[str, Any]:
    """Time Theorem 1 with observability off and on: the obs ceiling's row.

    Defaults to the E4 edge-scaling workload (random d-regular, n=512,
    d=10).  The disabled arm is the plain count-transport run; the
    enabled arm is the identical run under a live tracer + metrics
    registry writing to a scratch directory, plus exactly the per-run
    reporting the engine performs (one protocol span and one post-hoc
    ledger read).  ``obs_overhead`` is the fractional enabled-vs-disabled
    slowdown (``inf`` if the disabled arm timed at zero);
    ``bench --max-obs-overhead`` turns it into the CI ceiling.
    """
    import tempfile
    from pathlib import Path

    from ..obs import observing

    part = medium_workload(n, d, seed)

    def run():
        return run_vertex_coloring(part, seed=seed, transport="count")

    # One untimed run warms both arms alike and supplies the row's totals.
    summary = run().transcript.summary()
    disabled_s = _time(run, repeat)
    with tempfile.TemporaryDirectory() as tmp:
        with observing(
            trace=Path(tmp) / "trace.jsonl", metrics=Path(tmp) / "metrics.json"
        ) as observer:

            def run_observed():
                with observer.span("protocol", protocol="vertex", transport="count"):
                    result = run()
                observer.record_transcript("vertex", result.transcript)

            enabled_s = _time(run_observed, repeat)
    return {
        "protocol": "vertex (thm 1)",
        "n": n,
        "d": d,
        "seed": seed,
        "count_s": disabled_s,
        "obs_enabled_s": enabled_s,
        "obs_overhead": (
            enabled_s / disabled_s - 1.0 if disabled_s > 0 else float("inf")
        ),
        "total_bits": summary["total_bits"],
        "rounds": summary["rounds"],
    }
