"""Engine smoke tests: scenarios, sweep runner, result emission, CLI."""

from __future__ import annotations

import json

import pytest

from repro.engine import (
    FAMILIES,
    PROTOCOLS,
    Scenario,
    build_partition,
    build_workload,
    default_scenarios,
    iter_scenarios,
    results_table,
    run_scenario,
    smoke_scenarios,
    medium_workload,
    obs_overhead,
    sweep,
    write_results,
)
from repro.core import run_vertex_coloring
from repro.__main__ import main
from repro.rand import kernels


def _tiny(protocol: str, partition: str = "random") -> Scenario:
    return Scenario(
        family="regular",
        params=(("d", 4), ("n", 24)),
        partition=partition,
        protocol=protocol,
    )


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario("nope", (), "random", "vertex")
    with pytest.raises(ValueError):
        Scenario("regular", (), "nope", "vertex")
    with pytest.raises(ValueError):
        Scenario("regular", (), "random", "nope")
    with pytest.raises(ValueError):
        Scenario("regular", (), "random", "vertex", backend="nope")


@pytest.mark.parametrize("backend", ["set", "both", "bitset"])
def test_csr_is_the_only_scenario_backend(backend):
    assert Scenario("regular", (), "random", "vertex").backend == "csr"
    with pytest.raises(ValueError, match="the only one is 'csr'"):
        Scenario("regular", (), "random", "vertex", backend=backend)


def test_scenario_name_and_seed_are_stable():
    a = _tiny("vertex")
    assert a.name == "vertex/regular(d=4,n=24)/random/csr"
    assert a.coordinate == "vertex/regular(d=4,n=24)/random"
    # Seeds hash the (family, params) workload key only: every protocol
    # and partition scheme sharing the key runs the identical graph
    # instance.
    assert _tiny("edge").effective_seed == a.effective_seed
    assert _tiny("vertex", partition="all_alice").effective_seed == a.effective_seed
    other_workload = Scenario("regular", (("d", 4), ("n", 32)), "random", "vertex")
    assert other_workload.effective_seed != a.effective_seed
    pinned = Scenario("regular", (("d", 4), ("n", 24)), "random", "vertex", seed=7)
    assert pinned.effective_seed == 7


def test_scenario_params_are_normalized():
    a = Scenario("regular", (("n", 24), ("d", 4)), "random", "vertex")
    b = Scenario("regular", (("d", 4), ("n", 24)), "random", "vertex")
    assert a == b
    assert a.name == b.name
    assert a.effective_seed == b.effective_seed


def test_protocols_share_cached_workload_by_default():
    # No explicit seed: same (family, params) → same graph across protocols
    # and partition schemes.
    a = _tiny("vertex")
    b = _tiny("edge")
    c = _tiny("vertex", partition="all_alice")
    assert build_workload(a) is build_workload(b) is build_workload(c)


def test_workload_and_partition_caching():
    # Distinct protocols, same (family, params, seed): the cached graph and
    # partitioned instance must be shared, not regenerated.
    a = Scenario("regular", (("d", 4), ("n", 24)), "random", "vertex", seed=1)
    b = Scenario("regular", (("d", 4), ("n", 24)), "random", "edge", seed=1)
    assert build_workload(a) is build_workload(b)
    assert build_partition(a) is build_partition(b)


def test_run_scenario_record_shape():
    record = run_scenario(_tiny("vertex"))
    for key in (
        "scenario",
        "protocol",
        "family",
        "partition",
        "backend",
        "seed",
        "n",
        "m",
        "max_degree",
        "total_bits",
        "rounds",
        "num_colors",
        "valid",
        "params",
    ):
        assert key in record, key
    assert record["valid"] is True
    assert record["backend"] == "csr"
    assert record["n"] == 24
    # Wall-clock time lives in the observability layer, never in the
    # canonical record (it would break byte-identical merge/verify).
    assert "wall_time_s" not in record
    from repro.obs import WALL_CLOCK

    assert WALL_CLOCK.last(record["scenario"]) is not None


def test_every_protocol_runs_one_tiny_scenario():
    for protocol in PROTOCOLS:
        record = run_scenario(_tiny(protocol))
        assert record["valid"], protocol
        if protocol == "edge_zero_comm":
            assert record["total_bits"] == 0 and record["rounds"] == 0


def test_sweep_parallel_matches_serial():
    scenarios = [_tiny(p) for p in ("vertex", "edge", "edge_zero_comm")]
    serial = sweep(scenarios, jobs=1)
    parallel = sweep(scenarios, jobs=2)
    # Records carry no wall times (those live in repro.obs.WALL_CLOCK),
    # so serial and pooled sweeps must agree exactly, key for key.
    assert serial == parallel


def test_iter_scenarios_filter_and_transport():
    grid = smoke_scenarios()
    only_edge = list(iter_scenarios(grid, pattern="edge/"))
    assert only_edge and all("edge/" in s.name for s in only_edge)
    every = list(iter_scenarios([_tiny("vertex")], transport="all"))
    assert {s.transport for s in every} == {"count", "strict"}
    pinned = list(iter_scenarios(grid, transport="strict"))
    assert len(pinned) == len(grid)
    assert all(s.transport == "strict" for s in pinned)


def test_registry_grids_are_valid():
    for scenario in default_scenarios() + smoke_scenarios():
        assert scenario.family in FAMILIES
        assert scenario.protocol in PROTOCOLS


#: Families that declare a degree cap, with the cap their parameters declare.
CAPPED_FAMILIES = [
    ("power_law", {"n": 300, "exponent": 2.2, "max_degree": 24}, 24),
    ("social", {"n": 2000, "exponent": 2.3, "max_degree": 64}, 64),
    ("social", {"n": 200, "exponent": 2.0, "max_degree": 150}, 150),
    ("regular", {"n": 64, "d": 8}, 8),
    ("conflict", {"half": 64, "d_base": 8, "d_overlay": 4}, 12),
    ("bipartite_regular", {"half": 32, "d": 6}, 6),
]


@pytest.mark.parametrize(
    "family,params,cap",
    CAPPED_FAMILIES,
    ids=[f"{family}-cap{cap}" for family, _, cap in CAPPED_FAMILIES],
)
def test_families_never_exceed_their_declared_degree_cap(family, params, cap):
    coordinate = (family, tuple(params.items()), "random", "vertex")
    for seed in range(20):
        scenario = Scenario(*coordinate, seed=seed)
        assert build_workload(scenario).max_degree() <= cap


@pytest.mark.parametrize("family", ["power_law", "social"])
def test_degree_cap_not_below_n_is_rejected(family):
    params = (("exponent", 2.2), ("max_degree", 60), ("n", 50))
    scenario = Scenario(family, params, "random", "vertex")
    with pytest.raises(ValueError, match=r"max_degree must be in \[1, n\), got 60"):
        build_partition(scenario)


def test_write_results_and_table(tmp_path):
    results = sweep([_tiny("vertex"), _tiny("edge_zero_comm")], jobs=1)
    json_path, md_path = write_results(results, tmp_path, label="smoke")
    document = json.loads(json_path.read_text())
    assert document["count"] == 2
    assert document["all_valid"] is True
    assert len(document["results"]) == 2
    markdown = md_path.read_text()
    assert markdown.startswith("###")
    assert "| scenario |" in markdown
    console = results_table(results)
    assert "sweep results (2 scenarios)" in console


def test_cli_list_and_sweep(tmp_path, capsys):
    assert main(["list-scenarios", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "vertex/regular" in out

    code = main(
        [
            "sweep",
            "--smoke",
            "--filter",
            "edge_zero_comm",
            "--jobs",
            "1",
            "--out",
            str(tmp_path / "results"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    assert (tmp_path / "results" / "sweep.json").exists()
    assert (tmp_path / "results" / "sweep.md").exists()


def test_cli_sweep_rejects_empty_filter(capsys):
    assert main(["sweep", "--smoke", "--filter", "zzz-no-match"]) == 2


def test_obs_overhead_row():
    row = obs_overhead(n=48, d=4, seed=1, repeat=1)
    assert row["protocol"] == "vertex (thm 1)"
    assert row["count_s"] > 0 and row["obs_enabled_s"] > 0
    assert row["obs_overhead"] == row["obs_enabled_s"] / row["count_s"] - 1.0
    reference = run_vertex_coloring(medium_workload(48, 4, 1), seed=1)
    assert (row["total_bits"], row["rounds"]) == (
        reference.total_bits,
        reference.rounds,
    )


def test_obs_overhead_is_infinite_when_the_disabled_arm_times_at_zero(monkeypatch):
    def zero_time(fn, repeat):
        fn()
        return 0.0

    monkeypatch.setattr("repro.engine.bench._time", zero_time)
    assert obs_overhead(n=48, d=4, seed=1, repeat=1)["obs_overhead"] == float("inf")


def test_cli_bench_obs_overhead_passes_under_the_ceiling(tmp_path, capsys):
    out_json = tmp_path / "obs.json"
    assert main(
        ["bench", "--max-obs-overhead", "1e6", "--n", "48", "--degree", "4",
         "--repeat", "1", "--json", str(out_json)]
    ) == 0
    out = capsys.readouterr().out
    assert "observability overhead" in out
    assert "obs overhead guard" in out
    document = json.loads(out_json.read_text())
    assert document["bench"] == "obs_overhead"
    [row] = document["rows"]
    assert row["protocol"] == "vertex (thm 1)"


def test_cli_bench_obs_ceiling_fails_on_impossible_bound(capsys):
    # Enabled observability can never run in less than no time.
    assert main(
        ["bench", "--max-obs-overhead", "-100", "--n", "48", "--degree", "4",
         "--repeat", "1"]
    ) == 1
    assert "REGRESSION" in capsys.readouterr().err


def _stub_obs_row(overhead):
    return {
        "protocol": "vertex (thm 1)", "n": 512, "d": 10, "seed": 42,
        "count_s": 1.0, "obs_enabled_s": 1.0 + overhead,
        "obs_overhead": overhead, "total_bits": 0, "rounds": 0,
    }


@pytest.mark.parametrize(
    "overhead, code", [(0.10, 0), (0.25, 0), (0.30, 1), (float("nan"), 1),
                       (float("inf"), 1)]
)
def test_cli_bench_obs_ceiling(monkeypatch, capsys, overhead, code):
    monkeypatch.setattr(
        "repro.__main__.obs_overhead", lambda **kwargs: _stub_obs_row(overhead)
    )
    assert main(["bench", "--max-obs-overhead", "25"]) == code
    captured = capsys.readouterr()
    if code:
        assert "REGRESSION" in captured.err
    else:
        assert "obs overhead guard" in captured.out


def test_cli_bench_rand(tmp_path, capsys):
    out_json = tmp_path / "rand.json"
    assert main(
        ["bench", "--rand", "--repeat", "1", "--json", str(out_json)]
    ) == 0
    out = capsys.readouterr().out
    document = json.loads(out_json.read_text())
    assert document["bench"] == "kernel_comparison"
    if kernels.available():
        assert "numpy kernel backend" in out
        assert document["rows"] and all(
            r["op"].startswith("kernel:") for r in document["rows"]
        )
    else:
        assert "unavailable" in out and document["rows"] == []


@pytest.mark.skipif(not kernels.available(), reason="numpy kernels unavailable")
def test_kernel_comparison_times_the_row_gather_and_checks_both_paths(monkeypatch):
    from repro.engine import bench

    ops = [row["op"] for row in bench.kernel_comparison(repeat=1)]
    assert "kernel: gather rows social n=4096 awake=2048" in ops
    # A row whose numpy and pure outputs differ fails the whole comparison.
    monkeypatch.setattr(
        bench, "permutation_tables", lambda keys, m: bytes([kernels._np is None])
    )
    with pytest.raises(RuntimeError, match="paths disagree"):
        bench.kernel_comparison(repeat=1)


@pytest.mark.skipif(not kernels.available(), reason="numpy kernels unavailable")
def test_cli_bench_kernel_floor_fails_on_impossible_bound(capsys):
    assert main(
        ["bench", "--rand", "--repeat", "1", "--min-kernel-speedup", "1e9"]
    ) == 1
    assert "REGRESSION" in capsys.readouterr().err


def test_cli_bench_kernel_floor_fails_on_nan(monkeypatch, capsys):
    row = {"op": "kernel: stub", "pure_s": 0.0, "kernel_s": 0.0,
           "speedup": float("nan")}
    monkeypatch.setattr(
        "repro.__main__.kernel_comparison", lambda **kwargs: [row]
    )
    assert main(["bench", "--rand", "--min-kernel-speedup", "3"]) == 1
    assert "REGRESSION" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [["--rand"], ["--max-obs-overhead", "25"]])
def test_cli_bench_rejects_repeat_below_one(mode, capsys):
    assert main(["bench", *mode, "--repeat", "0"]) == 2
    assert "--repeat must be >= 1" in capsys.readouterr().err


def test_cli_list_large_grid(capsys):
    assert main(["list-scenarios", "--large"]) == 0
    out = capsys.readouterr().out
    assert "social(exponent=2.3,max_degree=64,n=1000000)" in out
    assert all(line.endswith("/csr") for line in out.strip().splitlines())


def test_cli_smoke_and_large_are_exclusive(capsys):
    with pytest.raises(SystemExit):
        main(["list-scenarios", "--smoke", "--large"])
    assert "not allowed with" in capsys.readouterr().err


def test_cli_bench_mode_flags_are_exclusive(capsys):
    assert main(["bench", "--rand", "--max-obs-overhead", "25"]) == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_cli_bench_needs_a_mode(capsys):
    assert main(["bench"]) == 2
    assert "bench needs a mode" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [["--rand"], ["--max-obs-overhead", "25"]])
def test_cli_bench_rejects_transport(mode, capsys):
    with pytest.raises(SystemExit):
        main(["bench", *mode, "--transport", "strict"])
    assert "unrecognized arguments: --transport" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "merge", "dispatch", "list-scenarios"])
def test_cli_rejects_the_removed_lockstep_transport(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--transport", "lockstep"])
    assert "invalid choice: 'lockstep'" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--graphs"], ["--min-csr-speedup", "3"]])
def test_cli_bench_rejects_the_removed_graphs_flags(flag, capsys):
    with pytest.raises(SystemExit):
        main(["bench", "--rand", *flag])
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "merge", "dispatch", "list-scenarios"])
def test_cli_rejects_the_removed_backend_flag(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--smoke", "--backend", "csr"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --backend" in capsys.readouterr().err


def test_cli_list_scenarios_names_every_smoke_coordinate_once(capsys):
    assert main(["list-scenarios", "--smoke"]) == 0
    names = capsys.readouterr().out.split()
    coordinates = {s.coordinate for s in smoke_scenarios()}
    assert len(names) == len(set(names)) == len(coordinates) == 12
    assert all(name.endswith("/csr") for name in names)


def test_cli_bench_rejects_infeasible_workload(capsys):
    # n*d odd -> random_regular_graph raises; the CLI must exit 2 cleanly.
    assert main(
        ["bench", "--max-obs-overhead", "25", "--n", "11", "--degree", "3"]
    ) == 2
    assert "infeasible workload" in capsys.readouterr().err
