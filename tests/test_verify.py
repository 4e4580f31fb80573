"""Tests for the verification harness."""

from __future__ import annotations

import pytest

from repro.core import (
    run_edge_coloring,
    run_vertex_coloring,
    run_zero_comm_edge_coloring,
)
from repro.graphs import EdgePartition, Graph, partition_random, random_regular_graph
from repro.verify import verify_edge_result, verify_vertex_result


@pytest.fixture
def workload(rng):
    g = random_regular_graph(60, 8, rng)
    return partition_random(g, rng)


class TestVertexVerification:
    def test_accepts_genuine_result(self, workload):
        res = run_vertex_coloring(workload, seed=1)
        report = verify_vertex_result(workload, res)
        assert report.ok
        report.raise_if_failed()  # no-op on success

    def test_detects_conflict(self, workload):
        res = run_vertex_coloring(workload, seed=1)
        v = 0
        u = next(iter(workload.graph.neighbors(v)))
        res.colors[v] = res.colors[u]
        report = verify_vertex_result(workload, res)
        assert not report.ok
        assert any("monochromatic" in p for p in report.problems)
        with pytest.raises(AssertionError, match="monochromatic"):
            report.raise_if_failed()

    def test_detects_missing_vertex(self, workload):
        res = run_vertex_coloring(workload, seed=1)
        del res.colors[5]
        report = verify_vertex_result(workload, res)
        assert any("uncolored" in p for p in report.problems)

    def test_detects_out_of_palette(self, workload):
        res = run_vertex_coloring(workload, seed=1)
        res.colors[3] = 999
        report = verify_vertex_result(workload, res)
        assert any("palette" in p for p in report.problems)

    def test_detects_transcript_mismatch(self, workload):
        res = run_vertex_coloring(workload, seed=1)
        res.transcript.record_round(1, 0)  # desynchronize summary fields?
        # rounds property reads the transcript, so tamper differently:
        object.__setattr__(res, "num_colors", 4)
        report = verify_vertex_result(workload, res)
        assert any("palette 4" in p for p in report.problems)


class TestEdgeVerification:
    def test_accepts_theorem2(self, workload):
        res = run_edge_coloring(workload)
        assert verify_edge_result(workload, res).ok

    def test_accepts_theorem3(self, workload):
        res = run_zero_comm_edge_coloring(workload)
        assert verify_edge_result(workload, res, zero_communication=True).ok

    def test_detects_ownership_violation(self, workload):
        res = run_edge_coloring(workload)
        # Move one of Bob's edges into Alice's output.
        edge = next(iter(workload.bob_edges))
        res.alice_colors[edge] = res.bob_colors.pop(edge)
        report = verify_edge_result(workload, res)
        assert not report.ok
        assert any("Alice" in p or "Bob" in p for p in report.problems)

    def test_detects_color_conflict(self, workload):
        res = run_edge_coloring(workload)
        v = 0
        neigh = sorted(workload.graph.neighbors(v))
        e1 = (min(v, neigh[0]), max(v, neigh[0]))
        e2 = (min(v, neigh[1]), max(v, neigh[1]))
        side1 = res.alice_colors if e1 in res.alice_colors else res.bob_colors
        side2 = res.alice_colors if e2 in res.alice_colors else res.bob_colors
        side1[e1] = side2[e2]
        report = verify_edge_result(workload, res)
        assert any("share color" in p for p in report.problems)

    def test_reports_each_uncolored_edge_once(self):
        part = EdgePartition(Graph(4, [(0, 1), (1, 2), (2, 3)]), [(0, 1), (2, 3)])
        res = run_edge_coloring(part)
        del res.bob_colors[(1, 2)]
        assert verify_edge_result(part, res).problems == [
            "Bob's reported edges differ from his input edges",
            "edge (1, 2) uncolored",
        ]

    def test_detects_fake_zero_communication(self, workload):
        res = run_edge_coloring(workload)  # spent real bits
        report = verify_edge_result(workload, res, zero_communication=True)
        assert any("spent" in p for p in report.problems)
