"""Result emission: JSON records plus a markdown summary table.

A sweep produces a list of flat dicts (one per scenario).  This module
writes them to ``<out>/sweep.json`` (machine-readable, one self-contained
document with metadata) and ``<out>/sweep.md`` (the human-readable table,
rendered through :mod:`repro.analysis.tables` so numbers format exactly
like the benchmark console output).

``sweep.json`` is *canonical*: records carry no volatile per-run data
(wall time lives out-of-band in :data:`repro.obs.metrics.WALL_CLOCK`),
so the document is a pure function of the scenario grid and the package
version.  That is what lets a serial sweep and the merged union of an
N-way sharded sweep compare bit for bit — the distributed-execution
invariant ``repro merge`` relies on.  Wall times still appear in the
console/markdown tables, where humans read them: the ``secs`` column is
filled from the wall-clock store for scenarios this process actually ran
and left blank otherwise (a merge or dispatch coordinator ran nothing
itself).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Sequence

from .. import __version__
from ..analysis.tables import format_markdown_table, format_table
from ..obs.metrics import WALL_CLOCK, WallClock

__all__ = ["build_document", "results_table", "write_results"]

#: Volatile keys stripped defensively from records entering canonical
#: documents.  The runner no longer produces any (wall time is
#: out-of-band), but the guard stays so a future in-record addition can
#: never silently break merge determinism.
_VOLATILE_KEYS = ("wall_time_s",)

_COLUMNS = (
    ("scenario", "scenario"),
    ("transport", "transport"),
    ("n", "n"),
    ("max_degree", "Δ"),
    ("num_colors", "colors"),
    ("total_bits", "bits"),
    ("rounds", "rounds"),
    ("valid", "valid"),
)


def results_table(
    results: Sequence[dict[str, Any]],
    markdown: bool = False,
    timings: WallClock | None = None,
) -> str:
    """Render sweep records as an aligned console or markdown table.

    The ``secs`` column reads from ``timings`` (default: the process
    wall-clock store) — this run's measured wall time per scenario,
    blank for records this process replayed or merged rather than ran.
    """
    clock = WALL_CLOCK if timings is None else timings
    headers = [label for _, label in _COLUMNS] + ["secs"]
    rows = []
    for record in results:
        total = clock.total(str(record.get("scenario", "")))
        rows.append(
            [record.get(key, "") for key, _ in _COLUMNS]
            + [total if total is not None else ""]
        )
    title = f"sweep results ({len(results)} scenarios)"
    if markdown:
        return format_markdown_table(headers, rows, title=title)
    return format_table(headers, rows, title=title)


def _canonical(record: dict[str, Any]) -> dict[str, Any]:
    """The record minus volatile keys — what goes into ``sweep.json``."""
    return {k: v for k, v in record.items() if k not in _VOLATILE_KEYS}


def build_document(
    results: Sequence[dict[str, Any]], shard: str | None = None
) -> dict[str, Any]:
    """The canonical sweep document for a record list.

    Exactly what :func:`write_results` serializes: canonical records
    (volatile keys stripped) wrapped with the package version and
    headline counts.  The dispatcher's tree merge uses this to wrap
    intermediate partial merges in the same shape as shard documents, so
    every fold goes back through :func:`merge_documents` unchanged.
    """
    document: dict[str, Any] = {
        "version": __version__,
        "count": len(results),
        "all_valid": all(bool(r.get("valid")) for r in results),
        "transports": sorted({r.get("transport", "count") for r in results}),
        "results": [_canonical(r) for r in results],
    }
    if shard is not None:
        document["shard"] = shard
    return document


def write_results(
    results: Sequence[dict[str, Any]],
    out_dir: str | Path,
    label: str = "sweep",
    shard: str | None = None,
) -> tuple[Path, Path]:
    """Write ``<label>.json`` and ``<label>.md`` under ``out_dir``.

    Returns the two paths.  The JSON document wraps the canonical records
    with the package version and headline counts so archived results stay
    self-describing; ``shard`` (a ``"k/N"`` spec) tags partial documents
    produced by ``sweep --shard`` so a merge's inputs are identifiable.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / f"{label}.json"
    md_path = out / f"{label}.md"
    document = build_document(results, shard=shard)
    json_path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    md_path.write_text(results_table(results, markdown=True) + "\n")
    return json_path, md_path
