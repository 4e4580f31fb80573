"""``Random-Color-Trial`` — Algorithm 1 of the paper (Lemma 4.1).

Each iteration, every *active* (uncolored) vertex flips a public coin; awake
vertices sample an available color uniformly via parallel Color-Sample
instances, run as one :func:`~repro.core.color_sample.color_sample_batch_proto`
fan-out (sharing rounds: the iteration's round cost is the max over the
instances, its bit cost the sum), then the parties exchange one confirmation
bit per awake vertex reporting whether any of *their* neighbors tried the
same color.  A vertex keeps its color iff both sides confirm.

Each iteration works on arrays, not per-vertex sets: one
:meth:`~repro.graphs.Graph.gather_rows` call concatenates the awake
vertices' own-side rows, the trial's per-vertex color array (0 =
uncolored) indexed by those rows gives the fan-out its used colors in
flat form (:func:`~repro.core.probes.used_colors`), and the same rows
give the confirmation bits (:func:`~repro.core.probes.confirmation_bits`).

Guarantees (Lemma 4.1): expected ``O(n/log⁴ n)`` vertices stay uncolored
after ``⌈1 + 4·log_{24/23} log n⌉`` iterations, expected ``O(n)`` bits, and
``O(log log n · log Δ)`` worst-case rounds.

The trial colors and confirmations are common knowledge, so both parties
always agree on the active set; in particular they can stop early once it
is empty (a free optimization the paper's fixed iteration count dominates).
"""

from __future__ import annotations

import math
from itertools import compress

from ..comm.bits import bitmap_cost
from ..comm.transport import Channel
from ..rand import Stream, derive_keys
from ..rand import kernels as _kernels
from ..graphs.graph import Graph
from .color_sample import color_sample_batch_proto
# The reference stays importable from here: perfbench's tracer tests look
# it up through this module.
from .color_sample import color_sample_proto  # noqa: F401
from .probes import confirmation_bits, used_colors

__all__ = [
    "paper_iteration_count",
    "random_color_trial_proto",
]

#: Per-iteration success-probability bound of Lemma 4.2 is 1/24, giving the
#: decay base 24/23 used in the paper's iteration count.
DECAY_BASE = 24.0 / 23.0


def paper_iteration_count(n: int) -> int:
    """The paper's iteration budget ``⌈1 + 4·log_{24/23} log₂ n⌉``."""
    if n < 2:
        return 1
    loglog = math.log2(n)
    if loglog <= 1.0:
        return 1
    return math.ceil(1 + 4 * math.log(loglog, DECAY_BASE))


def random_color_trial_proto(
    ch: Channel,
    own_graph: Graph,
    num_colors: int,
    pub: Stream,
    max_iterations: int | None = None,
    active_history: list[int] | None = None,
):
    """One party's side of Random-Color-Trial.

    ``own_graph`` is this party's local graph (all ``n`` vertices, its own
    edges); ``num_colors`` is the public palette size ``Δ+1``.  Returns the
    common-knowledge partial coloring and the sorted list of still-active
    vertices.  If ``active_history`` is given, the active-set size at the
    start of each iteration is appended to it (instrumentation for the
    Lemma 4.3 decay experiment; it does not affect the protocol).
    """
    n = own_graph.n
    iterations = paper_iteration_count(n) if max_iterations is None else max_iterations
    colors: dict[int, int] = {}
    # The same coloring as one color per vertex (0 = uncolored): indexing
    # it with the gathered rows gives each instance's used colors.
    np = _kernels._np
    coloring = [0] * n if np is None else np.zeros(n, dtype=np.int64)
    active = list(range(n))

    for iteration in range(iterations):
        if active_history is not None:
            active_history.append(len(active))
        if not active:
            break
        # Public per-vertex participation coins (no communication).
        flips = pub.coins(len(active), 0.5)
        awake = list(compress(active, flips))
        if not awake:
            continue

        # The awake vertices' own-side rows, gathered once: they feed the
        # Color-Sample fan-out its used colors and the confirmation its
        # clashes.  Instance i's stream is
        # pub.derive("rct", iteration).derive(awake[i]).
        offsets, ids = own_graph.gather_rows(awake)
        iter_base = pub.derive("rct", iteration)
        picks = yield from color_sample_batch_proto(
            ch,
            num_colors,
            *used_colors(offsets, ids, coloring),
            derive_keys(iter_base.key, awake),
        )
        chosen = list(map(picks.__getitem__, range(len(awake))))

        # One confirmation bit per awake vertex: "no conflict on my side".
        own_ok = confirmation_bits(offsets, ids, awake, chosen)
        peer_ok = yield from ch.send(bitmap_cost(len(awake)), own_ok)

        for v, color, mine, theirs in zip(awake, chosen, own_ok, peer_ok):
            if mine and theirs:
                colors[v] = color
                coloring[v] = color
        active = [v for v in active if v not in colors]

    return colors, active
