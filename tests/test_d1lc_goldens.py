"""Pinned D1LC transcript and coloring digests (Lemma 3.3 end to end).

The smoke grid's trial iterations leave no leftover, so its goldens never
reach D1LC.  With ``max_trial_iterations=0`` every vertex goes through the
sparsification fan-out, the gather and the list-coloring solve instead
(the vertex-d1lc perfbench shape, smaller).  The digests below pin that
path: the transcript's aggregate and with-log fingerprints, and a sha256
of the sorted coloring, which also catches a change in the order the
sampled lists are filled (the solver draws from them in iteration order).
They must hold with the numpy kernels on and off.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext

import pytest

from repro.core import d1lc, run_vertex_coloring
from repro.engine import Scenario
from repro.engine.runner import build_partition
from repro.rand import kernels

SEED = 11
PARAMS = (("d", 16), ("n", 64))

AGGREGATE = "e4d0433cae63b80238851870a59be34ea6027e94c55a7fffec1f507f99050924"
WITH_LOG = "c6400ec2a520588073aa100c8bb100beaa40a1cd825c219dc02927535b334f41"
COLORING = "41a004dbda22fceb5a09cecba12c6288857e1b0a506806a95e3cfcd72db49eb9"


def _coloring_digest(colors) -> str:
    payload = ",".join(f"{v}:{c}" for v, c in sorted(colors.items()))
    return hashlib.sha256(payload.encode()).hexdigest()


def _run(transport: str):
    part = build_partition(Scenario("regular", PARAMS, "random", "vertex"))
    return run_vertex_coloring(
        part, seed=SEED, max_trial_iterations=0, transport=transport
    )


@pytest.mark.parametrize("numpy_on", [True, False], ids=["numpy", "pure"])
def test_d1lc_transcript_and_coloring_match_golden(monkeypatch, numpy_on):
    if numpy_on and not kernels.available():
        pytest.skip("numpy kernels unavailable")
    induced_calls = []
    real_induced_on = d1lc._induced_on

    def induced_on(graph, active):
        induced_calls.append(len(active))
        return real_induced_on(graph, active)

    monkeypatch.setattr(d1lc, "_induced_on", induced_on)
    with nullcontext() if numpy_on else kernels.disabled():
        strict = _run("strict")
        count = _run("count")
    assert induced_calls and induced_calls[0] == 64, "D1LC was not reached"
    for result in (strict, count):
        assert result.transcript.fingerprint() == AGGREGATE
        assert _coloring_digest(result.colors) == COLORING
    assert strict.transcript.fingerprint(with_log=True) == WITH_LOG
