"""The full ``(Δ+1)``-vertex coloring protocol — Theorem 1.

Pipeline (Section 4.4):

1. **Random-Color-Trial** (Algorithm 1) colors all but an expected
   ``O(n/log⁴ n)`` vertices.
2. The leftover uncolored set ``Z`` induces a **D1LC instance**: each party
   derives its list ``Ψ_X(v) = [Δ+1] \\ (colors used in its side of the
   neighborhood)``; the intersection exceeds the leftover degree.
3. The **D1LC protocol** (Lemma 3.3) colors ``Z``.

Total: ``O(n)`` expected bits, ``O(log log n · log Δ)`` worst-case rounds.

The module exposes both the raw party generators (for protocol composition)
and :func:`run_vertex_coloring`, the measured driver every experiment uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..comm.ledger import Transcript
from ..comm.transport import Channel, Transport, resolve_transport
from ..rand import Stream
from ..graphs.graph import Graph
from ..graphs.partition import EdgePartition
from .d1lc import d1lc_proto
from .random_color_trial import paper_iteration_count, random_color_trial_proto

__all__ = ["VertexColoringResult", "run_vertex_coloring", "vertex_coloring_proto"]

PHASE_TRIAL = "random_color_trial"
PHASE_LEFTOVER = "d1lc_leftover"


@dataclass
class VertexColoringResult:
    """Outcome of one Theorem 1 execution."""

    colors: dict[int, int]
    transcript: Transcript
    num_colors: int
    leftover_size: int
    trial_iterations_cap: int

    @property
    def total_bits(self) -> int:
        """Bits exchanged across both phases."""
        return self.transcript.total_bits

    @property
    def rounds(self) -> int:
        """Rounds used across both phases."""
        return self.transcript.rounds


def leftover_lists(
    own_graph: Graph,
    colors: dict[int, int],
    active: list[int],
    num_colors: int,
) -> dict[int, set[int]]:
    """This party's D1LC lists for the leftover instance (Section 4.4)."""
    palette = set(range(1, num_colors + 1))
    lists = {}
    for v in active:
        used = own_graph.neighbor_colors(v, colors)
        lists[v] = palette - used
    return lists


def leftover_graph(own_graph: Graph, active: list[int]) -> Graph:
    """This party's edges of the subgraph induced by the leftover set."""
    return own_graph.induced_subgraph(active)


def vertex_coloring_proto(
    ch: Channel,
    role: str,
    own_graph: Graph,
    num_colors: int,
    pub: Stream,
    rng: random.Random,
    trial_cap: int,
):
    """One party's side of the full Theorem 1 pipeline.

    Phase ``random_color_trial`` runs Algorithm 1; if any vertices stay
    uncolored, phase ``d1lc_leftover`` colors the induced D1LC instance
    (Section 4.4).  Returns ``(colors, leftover_size)``, both common
    knowledge.
    """
    with ch.phase(PHASE_TRIAL):
        colors, active = yield from random_color_trial_proto(
            ch, own_graph, num_colors, pub, trial_cap
        )
    leftover_size = len(active)
    if active:
        pub_leftover = pub.derive("d1lc-phase")
        with ch.phase(PHASE_LEFTOVER):
            final = yield from d1lc_proto(
                ch,
                role,
                leftover_graph(own_graph, active),
                leftover_lists(own_graph, colors, active, num_colors),
                active,
                num_colors,
                pub_leftover,
                rng,
            )
        colors.update(final)
    return colors, leftover_size


def run_vertex_coloring(
    partition: EdgePartition,
    seed: int = 0,
    max_trial_iterations: int | None = None,
    transport: str | Transport | None = None,
    rand: Stream | None = None,
) -> VertexColoringResult:
    """Execute the Theorem 1 protocol on an edge-partitioned graph.

    The two parties read identical public tapes and disjoint private
    tapes, all derived from one root: pass ``rand`` (a :class:`Stream`)
    to compose this run under a caller-owned key hierarchy, or ``seed``
    (the back-compat alias) to root at ``Stream.from_seed(seed)`` — the
    two are interchangeable, ``run(part, seed=s)`` draws bit-for-bit the
    same tape as ``run(part, rand=Stream.from_seed(s))``.  Returns the
    common-knowledge coloring with the measured transcript (phases
    ``random_color_trial`` and ``d1lc_leftover``).  ``transport`` picks
    the comm transport (name or instance; default count).
    """
    n = partition.n
    delta = partition.max_degree
    num_colors = delta + 1
    core = resolve_transport(transport)
    transcript = core.new_transcript()

    if delta == 0:
        # Edgeless graph: both parties color everything 1, zero communication.
        colors = {v: 1 for v in range(n)}
        return VertexColoringResult(colors, transcript, num_colors, 0, 0)

    cap = (
        paper_iteration_count(n)
        if max_trial_iterations is None
        else max_trial_iterations
    )

    # Equal keys => identical public tapes; the private solver RNGs live
    # in label-separated stream space, so they never collide with any
    # public draw of the same root.  derive() ignores the root's counter,
    # so a partially-consumed rand stream still yields the same children.
    root = rand if rand is not None else Stream.from_seed(seed)
    pub_alice = root.derive("public")
    pub_bob = root.derive("public")
    rng_alice = root.derive_random("alice-private")
    rng_bob = root.derive_random("bob-private")

    # Spec tuples, matching ch.parallel's vocabulary: the transport calls
    # vertex_coloring_proto(ch, ...) directly, no per-run closures.
    (a_colors, a_leftover), (b_colors, b_leftover), _ = core.run(
        (
            vertex_coloring_proto,
            "alice",
            partition.alice_graph,
            num_colors,
            pub_alice,
            rng_alice,
            cap,
        ),
        (
            vertex_coloring_proto,
            "bob",
            partition.bob_graph,
            num_colors,
            pub_bob,
            rng_bob,
            cap,
        ),
        transcript,
    )
    if a_colors != b_colors or a_leftover != b_leftover:
        raise AssertionError("parties disagree on the coloring")

    return VertexColoringResult(a_colors, transcript, num_colors, a_leftover, cap)
