"""Scenario registry: graph family × size × Δ × partition × protocol.

A :class:`Scenario` is a fully reproducible experiment coordinate.  Every
axis is referenced by name so scenarios serialize to JSON, hash stably
(for per-scenario seeding), and round-trip through worker processes.  The
registry exposes curated grids rather than the full cross product: the
default sweep covers the regimes the paper's experiments E1–E20 care
about, and the smoke grid is a minutes-free subset touching every
protocol and the adversarial partition extremes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Iterator

from ..obs import get_observer
from ..rand import Stream, stable_label_hash
from ..comm.transport import TRANSPORTS
from ..core.edge_coloring import (
    run_edge_coloring,
    run_zero_comm_edge_coloring,
)
from ..core.vertex_coloring import run_vertex_coloring
from ..graphs import (
    PARTITIONERS,
    Graph,
    barbell_of_stars,
    c4_gadget_union,
    caterpillar_graph,
    complete_graph,
    configuration_model_graph,
    conflict_union_graph,
    gnp_random_graph,
    grid_graph,
    hypercube_graph,
    is_proper_edge_coloring,
    is_proper_vertex_coloring,
    power_law_degree_sequence,
    random_bipartite_regular,
    random_regular_graph,
)

__all__ = [
    "FAMILIES",
    "PROTOCOLS",
    "Scenario",
    "default_scenarios",
    "iter_scenarios",
    "large_scenarios",
    "smoke_scenarios",
]


@dataclass(frozen=True)
class Scenario:
    """One reproducible experiment coordinate.

    ``params`` parameterizes the graph family (key/value pairs, normalized
    to sorted order so the dataclass stays hashable and order-insensitive);
    ``seed`` drives both workload generation and the protocol's
    public/private tapes, and defaults to a stable hash of the
    (family, params) workload key — scenarios sharing a workload
    deliberately share randomness so that protocol and partition
    comparisons run on the identical instance (see :meth:`workload_key`).
    ``transport`` picks the comm-simulation transport (count / strict);
    both yield identical transcript aggregates, so it is a pure execution
    axis.  ``backend`` names the graph representation; ``"csr"`` is the
    only one, kept as a field because scenario names and sweep records
    carry it.
    """

    family: str
    params: tuple[tuple[str, Any], ...]
    partition: str
    protocol: str
    backend: str = "csr"
    seed: int | None = None
    transport: str = "count"

    def __post_init__(self) -> None:
        # Normalize params ordering so the same logical scenario always has
        # the same coordinate, seed, and workload-cache entry no matter how
        # the caller ordered the tuple.
        object.__setattr__(self, "params", tuple(sorted(self.params)))
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.partition not in PARTITIONERS:
            raise ValueError(f"unknown partition scheme {self.partition!r}")
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.backend != "csr":
            raise ValueError(f"unknown backend {self.backend!r}; the only one is 'csr'")
        if self.transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {self.transport!r}")

    @property
    def workload_key(self) -> str:
        """The workload identifier (the default seeding key).

        Deliberately excludes protocol and partition scheme: every
        scenario sharing a (family, params) coordinate runs the *same*
        graph instance, so protocol comparisons and the
        partition-adversary ablation isolate their own axis, and the
        workload cache actually hits across a sweep.
        """
        params = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.family}({params})"

    @property
    def coordinate(self) -> str:
        """The identifier without the backend and transport suffixes."""
        return f"{self.protocol}/{self.workload_key}/{self.partition}"

    @property
    def name(self) -> str:
        """A stable human-readable identifier including the backend.

        The transport appears only when it differs from the count
        default, so default scenario names carry no transport suffix.
        """
        base = f"{self.coordinate}/{self.backend}"
        if self.transport != "count":
            return f"{base}/{self.transport}"
        return base

    @property
    def effective_seed(self) -> int:
        """The explicit seed, or a stable 32-bit hash of the workload key."""
        if self.seed is not None:
            return self.seed
        return stable_label_hash(self.workload_key) & 0x7FFFFFFF

    def rep_seed(self, rep: int) -> int:
        """The seed of replication ``rep`` (0-based) of this scenario.

        Rep 0 is the scenario's own seed, so ``--reps 1`` reproduces an
        unreplicated sweep bit for bit; later reps derive label-hashed
        seeds from it.  Like :attr:`effective_seed`, the value depends
        only on the coordinate — never on sweep composition or execution
        order — which is what keeps replicated sweeps shardable.
        """
        if rep == 0:
            return self.effective_seed
        return stable_label_hash(("rep", self.effective_seed, rep)) & 0x7FFFFFFF

    def param_dict(self) -> dict[str, Any]:
        """The family parameters as a plain dict."""
        return dict(self.params)

    def cost_hint(self) -> float:
        """A dimensionless ~n·d work estimate for shard balancing.

        Protocol runtime scales roughly with the number of edge
        endpoints, so the hint is the family's vertex count times its
        typical degree.  The estimate only has to *rank* scenarios — the
        cost-weighted packer (:func:`repro.engine.pack_shards`) uses it
        greedily — so crude per-family formulas are fine; an unknown
        family falls back to a unit cost, which degrades packing to
        round-robin rather than failing.
        """
        p = self.param_dict()
        try:
            return float(_COST_HINTS[self.family](p))
        except (KeyError, TypeError):
            return 1.0

    def with_transport(self, transport: str) -> "Scenario":
        """The same scenario coordinate on another comm transport."""
        return replace(self, transport=transport)


def _params(**kwargs: Any) -> tuple[tuple[str, Any], ...]:
    """Normalize family parameters into sorted hashable pairs."""
    return tuple(sorted(kwargs.items()))


# ---------------------------------------------------------------------------
# graph families
# ---------------------------------------------------------------------------


def _family_regular(rng: random.Random, n: int, d: int) -> Graph:
    return random_regular_graph(n, d, rng)


def _family_gnp(rng: random.Random, n: int, p: float) -> Graph:
    return gnp_random_graph(n, p, rng)


def _family_bipartite(rng: random.Random, half: int, d: int) -> Graph:
    return random_bipartite_regular(half, d, rng)


def _family_hypercube(rng: random.Random, dimension: int) -> Graph:
    return hypercube_graph(dimension)


def _family_grid(rng: random.Random, rows: int, cols: int) -> Graph:
    return grid_graph(rows, cols)


def _family_complete(rng: random.Random, n: int) -> Graph:
    return complete_graph(n)


def _family_caterpillar(rng: random.Random, spine: int, legs: int) -> Graph:
    return caterpillar_graph(spine, legs)


def _family_power_law(
    rng: random.Random, n: int, exponent: float, max_degree: int
) -> Graph:
    degrees = power_law_degree_sequence(n, exponent, max_degree, rng)
    return configuration_model_graph(degrees, rng)


def _family_c4_gadgets(rng: random.Random, count: int) -> Graph:
    bits = [rng.randint(0, 1) for _ in range(count)]
    return c4_gadget_union(bits)


def _family_barbell(rng: random.Random, k: int, leaves: int) -> Graph:
    return barbell_of_stars(k, leaves)


def _family_conflict(
    rng: random.Random, half: int, d_base: int, d_overlay: int
) -> Graph:
    return conflict_union_graph(half, d_base, d_overlay, rng)


def _family_social(
    stream: Stream, n: int, exponent: float, max_degree: int
) -> Graph:
    """Power-law / social-network instances in O(n + m) memory.

    The only family whose builder receives a :class:`Stream` (see the
    ``stream_native`` flag): degree draws and stub pairing come from
    labelled child streams, both drawn in bulk, and the pairing's
    endpoint arrays go straight to the CSR build without ever
    materializing an edge set — which is what makes n = 10⁶ buildable.
    """
    degrees = power_law_degree_sequence(
        n, exponent, max_degree, stream.derive("degrees")
    )
    return configuration_model_graph(degrees, stream.derive("pairing"))


#: Builders flagged ``stream_native`` receive the workload Stream itself
#: instead of a derived ``random.Random`` (see ``runner._cached_workload``).
_family_social.stream_native = True  # type: ignore[attr-defined]


#: Graph families by name.  Each builder takes ``(rng, **params)``; the rng
#: is seeded per scenario so workloads are reproducible in isolation.
FAMILIES: dict[str, Callable[..., Graph]] = {
    "regular": _family_regular,
    "gnp": _family_gnp,
    "bipartite_regular": _family_bipartite,
    "hypercube": _family_hypercube,
    "grid": _family_grid,
    "complete": _family_complete,
    "caterpillar": _family_caterpillar,
    "power_law": _family_power_law,
    "c4_gadgets": _family_c4_gadgets,
    "barbell": _family_barbell,
    "conflict": _family_conflict,
    "social": _family_social,
}


#: ~n·d work estimates per family (vertices × typical degree), feeding
#: :meth:`Scenario.cost_hint`.  Each takes the family's param dict.
_COST_HINTS: dict[str, Callable[[dict[str, Any]], float]] = {
    "regular": lambda p: p["n"] * p["d"],
    "gnp": lambda p: p["n"] * max(1.0, p["n"] * p["p"]),
    "bipartite_regular": lambda p: 2 * p["half"] * p["d"],
    "hypercube": lambda p: (1 << p["dimension"]) * p["dimension"],
    "grid": lambda p: p["rows"] * p["cols"] * 4,
    "complete": lambda p: p["n"] * (p["n"] - 1),
    "caterpillar": lambda p: p["spine"] * (p["legs"] + 1) * (p["legs"] + 2),
    "power_law": lambda p: p["n"] * p["max_degree"],
    "c4_gadgets": lambda p: p["count"] * 8,
    "barbell": lambda p: p["k"] * (p["leaves"] + p["k"]),
    "conflict": lambda p: 2 * p["half"] * (p["d_base"] + p["d_overlay"]),
    "social": lambda p: p["n"] * p["max_degree"],
}


# ---------------------------------------------------------------------------
# protocols
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProtocolAdapter:
    """Uniform driver interface over the paper's protocol entry points.

    ``run(partition, seed, transport)`` returns the metric record the
    engine stores; every adapter validates its coloring against the
    definition-level checkers so a sweep doubles as a correctness harness.
    """

    key: str
    description: str
    run: Callable[..., dict[str, Any]] = field(repr=False)


def _observe_result(protocol: str, result) -> None:
    """Report a finished run's transcript to the installed observer.

    Post-hoc and scenario-granular: reads the ledger the run produced
    anyway, so the protocol loops carry no instrumentation at all and
    the disabled path costs one attribute load per scenario run.
    """
    obs = get_observer()
    if obs.enabled:
        obs.record_transcript(protocol, result.transcript)


def _run_vertex(partition, seed: int, transport: str = "count") -> dict[str, Any]:
    # Stream-native call: rand=Stream.from_seed(seed) is bit-for-bit the
    # driver's own seed= back-compat path, so sweep records are unchanged.
    result = run_vertex_coloring(
        partition, rand=Stream.from_seed(seed), transport=transport
    )
    _observe_result("vertex", result)
    graph = partition.graph
    return {
        "total_bits": result.total_bits,
        "rounds": result.rounds,
        "num_colors": result.num_colors,
        "leftover": result.leftover_size,
        "valid": is_proper_vertex_coloring(graph, result.colors, result.num_colors),
    }


def _run_edge(partition, seed: int, transport: str = "count") -> dict[str, Any]:
    result = run_edge_coloring(partition, transport=transport, rand=Stream.from_seed(seed))
    _observe_result("edge", result)
    graph = partition.graph
    return {
        "total_bits": result.total_bits,
        "rounds": result.rounds,
        "num_colors": result.num_colors,
        "valid": is_proper_edge_coloring(graph, result.colors, result.num_colors),
    }


def _run_edge_zero_comm(
    partition, seed: int, transport: str = "count"
) -> dict[str, Any]:
    result = run_zero_comm_edge_coloring(
        partition, transport=transport, rand=Stream.from_seed(seed)
    )
    _observe_result("edge_zero_comm", result)
    graph = partition.graph
    return {
        "total_bits": result.total_bits,
        "rounds": result.rounds,
        "num_colors": result.num_colors,
        "valid": is_proper_edge_coloring(graph, result.colors, result.num_colors),
    }


#: Protocol adapters by name.
PROTOCOLS: dict[str, ProtocolAdapter] = {
    "vertex": ProtocolAdapter(
        "vertex",
        "Theorem 1 (Δ+1)-vertex coloring: O(n) bits, O(log log n · log Δ) rounds",
        _run_vertex,
    ),
    "edge": ProtocolAdapter(
        "edge",
        "Theorem 2 (2Δ−1)-edge coloring: O(n) bits, O(1) rounds",
        _run_edge,
    ),
    "edge_zero_comm": ProtocolAdapter(
        "edge_zero_comm",
        "Theorem 3 (2Δ)-edge coloring: zero communication",
        _run_edge_zero_comm,
    ),
}


# ---------------------------------------------------------------------------
# curated grids
# ---------------------------------------------------------------------------


def smoke_scenarios() -> list[Scenario]:
    """A tiny grid covering every protocol and the partition extremes —
    the CI end-to-end check."""
    scenarios = []
    for protocol in ("vertex", "edge", "edge_zero_comm"):
        for partition in ("random", "all_alice", "degree_split"):
            scenarios.append(
                Scenario(
                    family="regular",
                    params=_params(n=64, d=8),
                    partition=partition,
                    protocol=protocol,
                )
            )
    scenarios.append(
        Scenario(
            family="gnp",
            params=_params(n=48, p=0.2),
            partition="random",
            protocol="vertex",
        )
    )
    scenarios.append(
        Scenario(
            family="hypercube",
            params=_params(dimension=5),
            partition="crossing",
            protocol="edge",
        )
    )
    scenarios.append(
        Scenario(
            family="conflict",
            params=_params(half=64, d_base=8, d_overlay=4),
            partition="random",
            protocol="edge",
        )
    )
    return scenarios


def default_scenarios() -> list[Scenario]:
    """The full curated sweep grid (the E18-style family × adversary matrix,
    plus size ladders for the scaling claims)."""
    scenarios: list[Scenario] = []
    # Size ladder at pinned Δ — the O(n)-bits claims of Theorems 1 & 2.
    for n in (128, 256, 512, 1024):
        for protocol in ("vertex", "edge", "edge_zero_comm"):
            scenarios.append(
                Scenario(
                    family="regular",
                    params=_params(n=n, d=8),
                    partition="random",
                    protocol=protocol,
                )
            )
    # Degree ladder at pinned n.
    for d in (4, 8, 16, 32):
        for protocol in ("vertex", "edge"):
            scenarios.append(
                Scenario(
                    family="regular",
                    params=_params(n=256, d=d),
                    partition="random",
                    protocol=protocol,
                )
            )
    # Structured families × all protocols.
    structured = [
        ("hypercube", _params(dimension=7)),
        ("grid", _params(rows=16, cols=16)),
        ("complete", _params(n=32)),
        ("caterpillar", _params(spine=64, legs=4)),
        ("power_law", _params(n=300, exponent=2.2, max_degree=24)),
        ("c4_gadgets", _params(count=64)),
        ("bipartite_regular", _params(half=100, d=9)),
        ("gnp", _params(n=200, p=0.05)),
        ("conflict", _params(half=64, d_base=8, d_overlay=4)),
    ]
    for family, params in structured:
        for protocol in ("vertex", "edge", "edge_zero_comm"):
            scenarios.append(
                Scenario(
                    family=family,
                    params=params,
                    partition="random",
                    protocol=protocol,
                )
            )
    # Dense large-Δ palettes: 2Δ−1 beyond the rand-perm SMALL_THRESHOLD
    # (96), so the Feistel cycle-walking permutation path runs end to end
    # instead of only in unit tests.
    dense = [
        ("regular", _params(n=256, d=64)),
        ("complete", _params(n=128)),
    ]
    for family, params in dense:
        for protocol in ("edge", "edge_zero_comm"):
            scenarios.append(
                Scenario(
                    family=family,
                    params=params,
                    partition="random",
                    protocol=protocol,
                )
            )
    # Partition-adversary ablation on one medium workload.
    for partition in PARTITIONERS:
        for protocol in ("vertex", "edge"):
            scenarios.append(
                Scenario(
                    family="regular",
                    params=_params(n=256, d=8),
                    partition=partition,
                    protocol=protocol,
                )
            )
    # The ladders and the ablation overlap at (n=256, d=8, random): dedupe
    # preserving order so the sweep never reruns a coordinate.
    return list(dict.fromkeys(scenarios))


def large_scenarios() -> list[Scenario]:
    """The million-vertex tier: scale runs (``sweep --large``).

    Power-law social instances at n ∈ {10⁵, 10⁶}; the graph's flat
    O(n + m) index arrays hold these sizes in tens of megabytes.  Kept
    out of :func:`default_scenarios` so ordinary sweeps stay
    minutes-free.
    """
    scenarios = [
        Scenario(
            family="social",
            params=_params(n=100_000, exponent=2.3, max_degree=64),
            partition="random",
            protocol=protocol,
        )
        for protocol in ("edge", "edge_zero_comm")
    ]
    scenarios.append(
        Scenario(
            family="social",
            params=_params(n=1_000_000, exponent=2.3, max_degree=64),
            partition="random",
            protocol="edge_zero_comm",
        )
    )
    return scenarios


def iter_scenarios(
    scenarios: Iterable[Scenario],
    pattern: str | None = None,
    transport: str | None = None,
) -> Iterator[Scenario]:
    """Filter scenarios by name substring and/or force a transport.

    ``transport`` pins the comm transport (``"all"`` expands to every
    registered transport); ``None`` keeps each scenario's own.
    Duplicates (e.g. pinning a transport on a grid that already
    enumerates it) are dropped, so a sweep never reruns a coordinate.
    """
    seen: set[Scenario] = set()
    for scenario in scenarios:
        if transport == "all":
            variants = [scenario.with_transport(t) for t in TRANSPORTS]
        elif transport is not None:
            variants = [scenario.with_transport(transport)]
        else:
            variants = [scenario]
        for candidate in variants:
            if candidate in seen:
                continue
            if pattern is None or pattern in candidate.name:
                seen.add(candidate)
                yield candidate
