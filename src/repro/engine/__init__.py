"""Parallel experiment engine: scenario registry, sweep runner, results.

``repro.engine`` is the layer between the protocol library and the
experiment harness: it names every experiment coordinate (graph family ×
parameters × partition scheme × protocol × transport) as a
:class:`Scenario`, runs batches of them — serially, across a
``multiprocessing`` pool, or sharded over many machines — with
per-scenario seeding, per-process workload caching, replication
(``reps``), and a crash-resumable journal, and emits deterministic JSON +
markdown result files.  :mod:`repro.engine.sharding` carries the
distributed pieces: stable-hash shard assignment, the completion journal,
and the merge/verify step that reassembles shard documents into the
bit-identical unsharded sweep.  The ``python -m repro`` CLI and the
``benchmarks/`` experiments are thin clients of this module.
"""

from .bench import kernel_comparison, medium_workload, obs_overhead
from .results import build_document, results_table, write_results
from .runner import (
    SweepEvent,
    aggregate_reps,
    build_partition,
    build_workload,
    run_scenario,
    run_scenario_rep,
    run_scenario_reps,
    sweep,
)
from .scenarios import (
    FAMILIES,
    PROTOCOLS,
    Scenario,
    default_scenarios,
    iter_scenarios,
    large_scenarios,
    smoke_scenarios,
)
from .sharding import (
    Journal,
    MergeError,
    load_shard_document,
    merge_documents,
    pack_shards,
    parse_shard_spec,
    shard_index,
    shard_scenarios,
)

__all__ = [
    "FAMILIES",
    "Journal",
    "MergeError",
    "PROTOCOLS",
    "Scenario",
    "SweepEvent",
    "aggregate_reps",
    "build_document",
    "build_partition",
    "build_workload",
    "default_scenarios",
    "iter_scenarios",
    "kernel_comparison",
    "large_scenarios",
    "load_shard_document",
    "medium_workload",
    "merge_documents",
    "obs_overhead",
    "pack_shards",
    "parse_shard_spec",
    "results_table",
    "run_scenario",
    "run_scenario_rep",
    "run_scenario_reps",
    "shard_index",
    "shard_scenarios",
    "smoke_scenarios",
    "sweep",
    "write_results",
]
