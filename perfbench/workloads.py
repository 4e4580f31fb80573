"""The benchmark's workloads: one Theorem-driver instance each.

Every workload is a sweep scenario coordinate (family, params, the
``random`` partition, the ``csr`` backend and the ``count`` transport)
plus the driver's keyword arguments.  Its default seed is the
coordinate's ``effective_seed``, so a default-seed run reproduces the
instance ``repro sweep`` builds for that coordinate.  ``golden`` pins the
transcript at the default seed: a run on that seed whose total bits,
rounds or fingerprint differ counts as failed.

:data:`WORKLOADS` are the benchmark's workloads (``BENCHMARK.json``): each
instance takes one to three seconds, so a 20-second run reports the
median of six to twelve instances: on a shared two-core machine whose
speed drifts by 10-50% over seconds to minutes, one 10-16 s instance per
run would leave no median to take.  :data:`PAPER_WORKLOADS` are the
same four shapes at the sizes the paper-scale claims are stated for
(n = 10^5, and n = 1000 for the D1LC workload); one instance there takes
10-16 s and 0.2-0.6 GB, so they are for ``report.py`` and one-off runs,
not for the timed loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

__all__ = ["ALL_WORKLOADS", "PAPER_WORKLOADS", "WORKLOADS", "Workload"]


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload (a driver on one graph coordinate)."""

    name: str
    family: str
    params: tuple[tuple[str, Any], ...]
    protocol: str
    driver_kwargs: tuple[tuple[str, Any], ...] = ()
    #: Transcript at the default seed: ``(total_bits, rounds, fingerprint)``.
    golden: tuple[int, int, str] | None = field(default=None, compare=False)

    def scenario(self):
        """The sweep coordinate this workload measures."""
        from repro.engine.scenarios import Scenario

        return Scenario(
            family=self.family,
            params=self.params,
            partition="random",
            protocol=self.protocol,
            backend="csr",
            transport="count",
        )

    @property
    def default_seed(self) -> int:
        return self.scenario().effective_seed

    def miniature(self, **params: Any) -> "Workload":
        """The same workload on smaller family parameters (for tests)."""
        merged = dict(self.params)
        merged.update(params)
        return replace(self, params=tuple(sorted(merged.items())), golden=None)


def _shapes(social_n: int, regular_n: int, d1lc_n: int,
            goldens: tuple) -> dict[str, Workload]:
    social = (("exponent", 2.3), ("max_degree", 64), ("n", social_n))
    vertex_social, edge_social, zero_regular, vertex_d1lc = goldens
    workloads = (
        # Theorem 1 at the paper's trial budget on a power-law graph:
        # Random-Color-Trial, Color-Sample, rand.perm and ~130-144 rounds do
        # the work; D1LC and the cover message do none.
        Workload("vertex-social", "social", social, "vertex",
                 golden=vertex_social),
        # Theorem 2 on the same instance: the cover message dominates time
        # and memory, no randomness is drawn, and the set-up is
        # vertex-social's, so a set-up change moves both alike.
        Workload("edge-social", "social", social, "edge", golden=edge_social),
        # Theorem 3 on a dense uniform-degree graph (m = 8n): set-up-, graphs-
        # and Fournier-bound with zero communication.
        Workload("zero-regular", "regular", (("d", 16), ("n", regular_n)),
                 "edge_zero_comm", golden=zero_regular),
        # Theorem 1 with a zero trial budget: every vertex goes through
        # Lemma 3.3's D1LC (sparsify with ~2 log^2 n Color-Samples per
        # vertex, gather, list-color), the budget-0 end of the E15 ablation.
        Workload("vertex-d1lc", "regular", (("d", 16), ("n", d1lc_n)), "vertex",
                 driver_kwargs=(("max_trial_iterations", 0),),
                 golden=vertex_d1lc),
    )
    return {w.name: w for w in workloads}


WORKLOADS: dict[str, Workload] = _shapes(20_000, 20_000, 300, (
    (1_171_600, 128,
     "419c3500c604308b247b4a3aa4b5ce7836c026a1f9698816634f630c5415bebd"),
    (400_011, 2,
     "382f3a43fc1727248fe1c1b58115678973eb3e575cef138a188f4fe8e22e6834"),
    (0, 0,
     "44d6d77daef12fa369f87164471c96b0d1a204a7c12d3e5d76770cfc60172fb5"),
    (1_246_870, 7,
     "338c45b195c8add3e1e172b2b051c234cef841e50d682a1c766955be6a384676"),
))

PAPER_WORKLOADS: dict[str, Workload] = {
    f"{name}-paper": replace(w, name=f"{name}-paper")
    for name, w in _shapes(100_000, 100_000, 1000, (
        (5_865_424, 144,
         "2b455b10e1437a8c117c111f5925314052a5461a6eb391271669c933edc3db4b"),
        (1_999_985, 2,
         "c04fc6aada671c64a843c8918a37ec871615a3eea803dced8be9500f784d2448"),
        (0, 0,
         "44d6d77daef12fa369f87164471c96b0d1a204a7c12d3e5d76770cfc60172fb5"),
        (6_055_344, 7,
         "782da71c3912c37d83fdb9e1d0a2edb142e80962caa38602afb43d2933397190"),
    )).items()
}

ALL_WORKLOADS: dict[str, Workload] = {**WORKLOADS, **PAPER_WORKLOADS}
