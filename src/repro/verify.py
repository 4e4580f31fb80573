"""One-call verification of protocol results against the model's contract.

Downstream users (and our own benches) repeatedly need the same audit:
*is this result a valid output of the problem the paper defines?*  That is
more than properness — the two-party model adds output-ownership rules
(each party reports its own edges in the edge-coloring problem, both
parties know all vertex colors in the vertex-coloring problem) and
palette constraints.  These functions re-check everything from scratch
against the original :class:`~repro.graphs.partition.EdgePartition`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core.edge_coloring import EdgeColoringResult
from .core.vertex_coloring import VertexColoringResult
from .graphs.partition import EdgePartition
from .graphs.validation import _edge_clashes, vertex_coloring_conflicts

__all__ = ["VerificationReport", "verify_edge_result", "verify_vertex_result"]


@dataclass
class VerificationReport:
    """Outcome of a contract audit; falsy when any check failed."""

    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        """Record a violated check."""
        self.problems.append(message)

    @property
    def ok(self) -> bool:
        """True if every check passed."""
        return not self.problems

    def __bool__(self) -> bool:
        return self.ok

    def raise_if_failed(self) -> None:
        """Raise ``AssertionError`` listing every violated check."""
        if self.problems:
            raise AssertionError(
                "verification failed:\n  - " + "\n  - ".join(self.problems)
            )


def verify_vertex_result(
    partition: EdgePartition,
    result: VertexColoringResult,
) -> VerificationReport:
    """Audit a Theorem 1 result against the ``(Δ+1)``-vertex contract."""
    report = VerificationReport()
    graph = partition.graph
    num_colors = partition.max_degree + 1

    missing = [v for v in graph.vertices() if v not in result.colors]
    if missing:
        report.fail(f"{len(missing)} vertices uncolored, e.g. {missing[:3]}")
    out_of_palette = [
        v for v, c in result.colors.items() if not 1 <= c <= num_colors
    ]
    if out_of_palette:
        report.fail(
            f"{len(out_of_palette)} vertices outside palette [1..{num_colors}]"
        )
    conflicts = vertex_coloring_conflicts(graph, result.colors)
    if conflicts:
        report.fail(f"{len(conflicts)} monochromatic edges, e.g. {conflicts[:3]}")
    if result.num_colors != num_colors:
        report.fail(
            f"result declares palette {result.num_colors}, expected {num_colors}"
        )
    if result.transcript.rounds != result.rounds:
        report.fail("result.rounds disagrees with its transcript")
    if result.total_bits != result.transcript.total_bits:
        report.fail("result.total_bits disagrees with its transcript")
    if result.leftover_size < 0 or result.leftover_size > graph.n:
        report.fail(f"implausible leftover size {result.leftover_size}")
    return report


def verify_edge_result(
    partition: EdgePartition,
    result: EdgeColoringResult,
    zero_communication: bool = False,
) -> VerificationReport:
    """Audit a Theorem 2/3 result against the edge-coloring contract.

    ``zero_communication`` additionally enforces Theorem 3's empty
    transcript and widens the palette to ``2Δ``.
    """
    report = VerificationReport()
    graph = partition.graph
    delta = partition.max_degree
    num_colors = max(2 * delta if zero_communication else 2 * delta - 1, 1)

    if set(result.alice_colors) != set(partition.alice_edges):
        report.fail("Alice's reported edges differ from her input edges")
    if set(result.bob_colors) != set(partition.bob_edges):
        report.fail("Bob's reported edges differ from his input edges")

    merged = result.colors
    out_of_palette = [
        e for e, c in merged.items() if not 1 <= c <= num_colors
    ]
    if out_of_palette:
        report.fail(
            f"{len(out_of_palette)} edges outside palette [1..{num_colors}], "
            f"e.g. {out_of_palette[:3]}"
        )
    colored = {}
    for edge in graph.edges():
        color = merged.get(edge)
        if color is None:
            report.fail(f"edge {edge} uncolored")
        else:
            colored[edge] = color
    for earlier, edge, color, v in _edge_clashes(graph, colored):
        report.fail(f"edges {earlier} and {edge} share color {color} at {v}")
    if zero_communication and result.transcript.total_bits != 0:
        report.fail(
            f"zero-communication protocol spent {result.transcript.total_bits} bits"
        )
    if zero_communication and result.transcript.rounds != 0:
        report.fail(f"zero-communication protocol used {result.transcript.rounds} rounds")
    return report
