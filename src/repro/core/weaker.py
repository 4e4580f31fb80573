"""The *weaker*-(2Δ−1)-edge coloring problem (Section 6.4, Theorem 5).

In the weaker variant, parties need not report their own edges: each party
may output colors for *any* edges, as long as every edge is reported by at
least one party and the union of reports is a consistent proper coloring.
This is the relaxation that makes the W-streaming reduction go through —
a streaming simulator may emit a color for an edge the currently
simulating party does not own.

This module gives the problem a first-class result type and validator,
plus the two canonical producers:

* any *strict* protocol result (Theorem 2) is trivially a weaker result;
* the streaming reduction (:func:`repro.lowerbound.wstreaming.
  reduce_streaming_to_two_party`) produces genuinely weaker outputs.

Theorem 5: even this relaxed problem needs ``Ω(n)`` bits.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..comm.ledger import Transcript
from ..graphs.graph import Edge
from ..graphs.partition import EdgePartition
from ..graphs.validation import _edge_clashes
from .edge_coloring import EdgeColoringResult

__all__ = [
    "WeakerEdgeColoringResult",
    "validate_weaker_result",
    "weaker_from_strict",
    "weaker_from_streaming",
]


@dataclass
class WeakerEdgeColoringResult:
    """Per-party edge-color reports under the weaker output rule."""

    alice_reports: dict[Edge, int]
    bob_reports: dict[Edge, int]
    transcript: Transcript
    num_colors: int

    @property
    def colors(self) -> dict[Edge, int]:
        """The merged coloring (reports agree wherever they overlap)."""
        merged = dict(self.alice_reports)
        merged.update(self.bob_reports)
        return merged

    @property
    def total_bits(self) -> int:
        return self.transcript.total_bits


def validate_weaker_result(
    partition: EdgePartition,
    result: WeakerEdgeColoringResult,
) -> list[str]:
    """All violations of the weaker-output contract (empty = valid).

    Checks: every edge reported by at least one party; overlapping reports
    agree; no phantom edges; colors in palette; union proper.
    """
    problems: list[str] = []
    graph = partition.graph
    edges = set(graph.edges())

    reported = set(result.alice_reports) | set(result.bob_reports)
    missing = edges - reported
    if missing:
        problems.append(f"{len(missing)} edges unreported, e.g. {sorted(missing)[:3]}")
    phantom = reported - edges
    if phantom:
        problems.append(f"reports for non-edges, e.g. {sorted(phantom)[:3]}")
    overlap = set(result.alice_reports) & set(result.bob_reports)
    disagreements = [
        e for e in overlap if result.alice_reports[e] != result.bob_reports[e]
    ]
    if disagreements:
        problems.append(
            f"parties disagree on {len(disagreements)} edges, "
            f"e.g. {disagreements[:3]}"
        )

    merged = result.colors
    bad_palette = [
        e for e, c in merged.items() if not 1 <= c <= result.num_colors
    ]
    if bad_palette:
        problems.append(
            f"{len(bad_palette)} reports outside palette [1..{result.num_colors}]"
        )
    colored = {e: c for e, c in merged.items() if e in edges}
    for earlier, edge, color, v in _edge_clashes(graph, colored):
        problems.append(f"edges {earlier} and {edge} share color {color} at {v}")
    return problems


def weaker_from_strict(result: EdgeColoringResult) -> WeakerEdgeColoringResult:
    """Reinterpret a strict (Theorem 2 style) result as a weaker result.

    Strict outputs satisfy the weaker contract by construction: each party
    reports exactly its own edges, so coverage and agreement are immediate.
    """
    return WeakerEdgeColoringResult(
        dict(result.alice_colors),
        dict(result.bob_colors),
        result.transcript,
        result.num_colors,
    )


def weaker_from_streaming(
    partition: EdgePartition,
    algorithm_factory,
    transport=None,
) -> WeakerEdgeColoringResult:
    """Run the streaming reduction and package its (weaker) outputs.

    The reduction's communication equals the streaming state size; by
    Theorem 5 it is therefore ``Ω(n)`` — the bridge to Corollary 1.2.
    ``transport`` is forwarded to the reduction's comm simulation.
    """
    from ..lowerbound.wstreaming import reduce_streaming_to_two_party

    alice_out, bob_out, transcript = reduce_streaming_to_two_party(
        partition, algorithm_factory, transport=transport
    )
    delta = partition.max_degree
    return WeakerEdgeColoringResult(
        alice_out, bob_out, transcript, max(2 * delta - 1, 1)
    )
