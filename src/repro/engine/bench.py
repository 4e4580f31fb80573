"""Backend, observability and kernel benchmarks on shared workloads.

``backend_comparison`` times the graph kernels the protocol hot paths
lean on (copy for the Algorithm 2 surgery, induced subgraphs for the D1LC
leftover instance, neighborhood scans for Random-Color-Trial
confirmations) and the three end-to-end protocol drivers, on the standard
``medium_partition`` workload of the benchmark suite (random d-regular,
n=512, d=8, seed=42) unless told otherwise.  Both backends run the
*identical* instance — the bitset partition is a converted copy — so the
comparison is purely about the adjacency representation.

``obs_overhead`` times Theorem 1 on the E4 edge-scaling workload (random
d-regular, n=512, d=10) with observability off and on — the row behind
the ``bench --max-obs-overhead`` CI ceiling.

``kernel_comparison`` times the numpy kernels of ``repro.rand`` against
the pure-Python paths they are bit-for-bit equal to, and
``graphs_comparison`` the three graph representations on one shared
power-law edge list.  Whole-run timing against an earlier commit is
``perfbench``'s job (``perfbench/ab.py``), not this module's.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from ..core.edge_coloring import run_edge_coloring, run_zero_comm_edge_coloring
from ..core.vertex_coloring import run_vertex_coloring
from ..graphs import (
    GRAPH_BACKENDS,
    EdgePartition,
    configuration_model_edge_stream,
    power_law_degree_sequence,
)
from ..rand import Stream
from .runner import build_partition
from .scenarios import Scenario

__all__ = [
    "backend_comparison",
    "graphs_comparison",
    "kernel_comparison",
    "medium_workload",
    "obs_overhead",
]


def medium_workload(n: int = 512, d: int = 8, seed: int = 42) -> EdgePartition:
    """The benchmark suite's shared workload (randomly partitioned d-regular).

    Routed through the engine's scenario cache, so ``python -m repro bench``
    and the ``medium_partition`` pytest fixture time the identical instance.
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


def backend_comparison(
    n: int = 512,
    d: int = 8,
    seed: int = 42,
    repeat: int = 5,
    transport: str = "count",
) -> list[dict[str, Any]]:
    """Rows of ``{kernel, set_s, bitset_s, speedup}`` for the table renderers.

    ``transport`` picks the comm simulation used by the end-to-end
    protocol rows (the kernel rows never communicate).
    """
    part = medium_workload(n, d, seed)
    bpart = part.astype("bitset")
    g, b = part.graph, bpart.graph
    half = list(range(0, g.n, 2))
    packed_g = g.pack_vertices(half)
    packed_b = b.pack_vertices(half)

    def scan(graph, packed):
        def run():
            for v in range(graph.n):
                graph.neighbors_in(v, packed)
        return run

    kernels: list[tuple[str, Callable[[], Any], Callable[[], Any], int]] = [
        ("graph.copy", g.copy, b.copy, 20 * repeat),
        (
            "induced_subgraph(n/2)",
            lambda: g.induced_subgraph(half),
            lambda: b.induced_subgraph(half),
            4 * repeat,
        ),
        ("neighbors_in sweep", scan(g, packed_g), scan(b, packed_b), 4 * repeat),
        (
            "is_independent_set(n/2)",
            lambda: g.is_independent_set(half),
            lambda: b.is_independent_set(half),
            4 * repeat,
        ),
        (
            "protocol: vertex (thm 1)",
            lambda: run_vertex_coloring(part, seed=seed, transport=transport),
            lambda: run_vertex_coloring(bpart, seed=seed, transport=transport),
            repeat,
        ),
        (
            "protocol: edge (thm 2)",
            lambda: run_edge_coloring(part, transport=transport),
            lambda: run_edge_coloring(bpart, transport=transport),
            repeat,
        ),
        (
            "protocol: zero-comm (thm 3)",
            lambda: run_zero_comm_edge_coloring(part, transport=transport),
            lambda: run_zero_comm_edge_coloring(bpart, transport=transport),
            repeat,
        ),
    ]

    rows = []
    for name, set_fn, bitset_fn, reps in kernels:
        set_s = _time(set_fn, reps)
        bitset_s = _time(bitset_fn, reps)
        rows.append(
            {
                "kernel": name,
                "set_s": set_s,
                "bitset_s": bitset_s,
                "speedup": set_s / bitset_s if bitset_s > 0 else float("inf"),
            }
        )
    return rows


def graphs_comparison(
    n: int = 100_000,
    degree: int = 24,
    seed: int = 42,
    repeat: int = 3,
) -> list[dict[str, Any]]:
    """One row per graph backend: build time, probe throughput, memory.

    All backends ingest the *identical* power-law edge list (the social
    family's recipe: stream-drawn degree sequence + configuration-model
    pairing), so every difference is pure representation.  Per backend:

    * ``build_s`` — best-of construction time from the shared edge list.
    * ``probe_s`` — one confirmation-style sweep: pack half the vertex
      set, then ``has_neighbor_in`` for every vertex (the Random-Color-
      Trial hot probe).  This is where bitset's O(n/64) words-per-probe
      masks collapse against CSR's O(deg) row scans on sparse graphs.
    * ``mem_mb`` / ``peak_mb`` — tracemalloc-retained structure size and
      build-time allocation peak (bitset adjacency is O(n²) bits, so at
      n = 10⁵ this is the backend-picking number).

    The ``csr`` row adds ``probe_speedup_vs_bitset`` and
    ``mem_ratio_vs_bitset`` — the quantities the CI guard
    (``bench --graphs --min-csr-speedup``) floors.
    """
    import tracemalloc

    stream = Stream.from_seed(seed, "bench-graphs")
    degrees = power_law_degree_sequence(n, 2.3, degree, stream.derive("degrees"))
    edges = list(
        configuration_model_edge_stream(degrees, stream.derive("pairing"))
    )

    def probe(graph, packed):
        has_neighbor_in = graph.has_neighbor_in
        for v in range(graph.n):
            has_neighbor_in(v, packed)

    rows = []
    by_backend: dict[str, dict[str, Any]] = {}
    half = range(0, n, 2)
    for backend, cls in GRAPH_BACKENDS.items():
        build_s = _time(lambda: cls(n, edges), min(repeat, 2))
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        graph = cls(n, edges)
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        packed = graph.pack_vertices(half)
        probe_s = _time(lambda: probe(graph, packed), repeat)
        row = {
            "backend": backend,
            "n": n,
            "m": graph.m,
            "seed": seed,
            "build_s": build_s,
            "probe_s": probe_s,
            "mem_mb": round((current - before) / 1e6, 3),
            "peak_mb": round((peak - before) / 1e6, 3),
        }
        by_backend[backend] = row
        rows.append(row)
    csr, bitset = by_backend.get("csr"), by_backend.get("bitset")
    if csr and bitset:
        csr["probe_speedup_vs_bitset"] = (
            bitset["probe_s"] / csr["probe_s"] if csr["probe_s"] > 0 else float("inf")
        )
        csr["mem_ratio_vs_bitset"] = (
            bitset["mem_mb"] / csr["mem_mb"] if csr["mem_mb"] > 0 else float("inf")
        )
    return rows


def kernel_comparison(seed: int = 42, repeat: int = 5) -> list[dict[str, Any]]:
    """Rows of ``{op, pure_s, kernel_s, speedup}`` — pure Python vs numpy.

    Times the exact :class:`repro.rand.Stream` entry points on batch sizes
    above the kernel dispatch thresholds, once with the numpy backend live
    and once under :class:`repro.rand.kernels.disabled` — the same escape
    hatch ``REPRO_NO_NUMPY=1`` flips.  Both arms draw bit-for-bit identical
    values (the kernels' parity contract), so the ratio is pure backend
    speed.  Returns ``[]`` when numpy is unavailable; the CLI's
    ``--min-kernel-speedup`` floor guards these rows in CI.
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
    ]

    rows = []
    for name, fn in cases:
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
