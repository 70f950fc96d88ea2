import csv
import json

import pytest
from click.testing import CliRunner

from age_patrol import average_age_lower_bound, cli, load_graph, markov
from age_patrol.cli import EXIT_VALIDATION, RUN_CSV_FIELDS, SWEEP_CSV_FIELDS, main


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_graph_ring_command(runner, tmp_path):
    out = tmp_path / "ring.json"
    result = invoke(runner, ["graph", "--family", "ring", "--n", "21", "--k", "3",
                             "--weights", "uniform", "-o", str(out)])
    assert result.exit_code == 0, result.output
    g = load_graph(out)
    assert g.n == 21
    assert all(d == 6 for d in g.out_degree)


def test_graph_geometric_auto_radius(runner, tmp_path):
    out = tmp_path / "geo.json"
    result = invoke(runner, ["graph", "--family", "geometric", "--n", "25", "--r", "auto",
                             "--seed", "7", "-o", str(out)])
    assert result.exit_code == 0, result.output
    g = load_graph(out)
    assert g.n == 25
    assert g.meta["params"]["r"] == pytest.approx(2.0 / 5.0)


def test_graph_missing_n_is_usage_error(runner, tmp_path):
    result = runner.invoke(main, ["graph", "--family", "ring",
                                  "-o", str(tmp_path / "x.json")])
    assert result.exit_code == 2


def test_graph_validation_error_exit_code(runner, tmp_path):
    result = runner.invoke(main, ["graph", "--family", "geometric", "--n", "4", "--r", "0.0",
                                  "--seed", "1", "-o", str(tmp_path / "x.json")])
    assert result.exit_code == 3
    assert "disconnected" in result.output


def test_design_mh_prints_identity(runner, tmp_path):
    graph_path = tmp_path / "g.json"
    invoke(runner, ["graph", "--family", "ring", "--n", "9", "--k", "2",
                    "--weights", "random", "--seed", "3", "-o", str(graph_path)])
    out = tmp_path / "design.json"
    result = invoke(runner, ["design", "--graph", str(graph_path), "--method", "mh",
                             "-o", str(out)])
    assert result.exit_code == 0, result.output
    payload = json.loads(out.read_text())
    report = payload["age_report"]
    assert report["network_peak"] == pytest.approx(report["peak_opt_value"], abs=1e-9)


def test_design_fastest_beats_mh_objective(runner, tmp_path):
    graph_path = tmp_path / "g.json"
    invoke(runner, ["graph", "--family", "ring", "--n", "8", "--k", "1", "-o", str(graph_path)])
    out = tmp_path / "fast.json"
    result = invoke(runner, ["design", "--graph", str(graph_path), "--method", "fastest",
                             "-o", str(out)])
    assert result.exit_code == 0, result.output
    payload = json.loads(out.read_text())
    assert payload["objective"] <= 1.0  # warm-start objective on this ring
    assert payload["converged"]


def test_design_unknown_method_usage_error(runner, tmp_path):
    graph_path = tmp_path / "g.json"
    invoke(runner, ["graph", "--family", "ring", "--n", "5", "--k", "1", "-o", str(graph_path)])
    result = runner.invoke(main, ["design", "--graph", str(graph_path),
                                  "--method", "sdp"])
    assert result.exit_code == 2


def test_simulate_replications_and_aggregate(runner, tmp_path):
    graph_path = tmp_path / "g.json"
    invoke(runner, ["graph", "--family", "ring", "--n", "6", "--k", "1", "-o", str(graph_path)])
    out = tmp_path / "runs.csv"
    result = invoke(runner, ["simulate", "--graph", str(graph_path), "--policy", "mh",
                             "--horizon", "4000", "--replications", "5",
                             "--seeds", "1,2,3,4,5", "-o", str(out)])
    assert result.exit_code == 0, result.output
    rows = read_csv(out)
    assert [r["row_type"] for r in rows] == ["replication"] * 5 + ["aggregate"]
    assert list(rows[0].keys()) == RUN_CSV_FIELDS
    assert rows[-1]["peak_stderr"] != ""


@pytest.mark.parametrize("flags, config", [
    (["--replications", "10", "--seeds", "1,2"], {}),
    (["--replications", "1"], {"seeds": [1, 2]}),
    ([], {"replications": 3, "seeds": [1, 2]}),
], ids=["flags", "flag-over-config", "config"])
def test_replications_disagreeing_with_seeds_is_usage_error(runner, tmp_path, flags, config):
    # the replication count used to be ignored whenever seeds were given
    graph_path = tmp_path / "g.json"
    invoke(runner, ["graph", "--family", "ring", "--n", "5", "--k", "1", "-o", str(graph_path)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "runs.csv"
    result = runner.invoke(main, ["simulate", "--graph", str(graph_path), "--policy", "mh",
                                  "--horizon", "500", "--config", str(cfg), "-o", str(out)]
                           + flags)
    assert result.exit_code == 2, result.output
    assert "replications" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command, args", [
    ("simulate", ["--jobs", "-3"]),
    ("simulate", ["--jobs", "0"]),
    ("simulate", ["--config", "jobs0.json"]),
    ("reproduce", ["--jobs", "0"]),
], ids=["flag-negative", "flag-zero", "config-zero", "reproduce-flag-zero"])
def test_bad_job_count_is_usage_error(runner, tmp_path, monkeypatch, command, args):
    # each of these used to run serially and exit 0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "jobs0.json").write_text(json.dumps({"jobs": 0}))
    invoke(runner, ["graph", "--family", "ring", "--n", "5", "--k", "1", "-o", "g.json"])
    if command == "simulate":
        args = ["simulate", "--graph", "g.json", "--policy", "mh", "--horizon", "500",
                "--seeds", "1,2", "-o", "runs.csv"] + args
    else:
        args = ["reproduce", "--figure", "fig4", "--out-dir", "sweep", "--sizes", "9",
                "--horizon", "500", "--solver-iterations", "10"] + args
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "jobs" in result.output.lower()
    assert not (tmp_path / "runs.csv").exists() and not (tmp_path / "sweep").exists()


def test_simulate_age_based_default_horizon(runner, tmp_path):
    graph_path = tmp_path / "g.json"
    invoke(runner, ["graph", "--family", "grid", "--side", "3", "-o", str(graph_path)])
    out = tmp_path / "runs.csv"
    result = invoke(runner, ["simulate", "--graph", str(graph_path),
                             "--policy", "age_based", "-o", str(out)])
    assert result.exit_code == 0, result.output
    rows = read_csv(out)
    assert rows[0]["horizon"] == "50000"


def test_simulate_periodic_and_trace(runner, tmp_path):
    graph_path = tmp_path / "g.json"
    invoke(runner, ["graph", "--family", "ring", "--n", "4", "--k", "1", "-o", str(graph_path)])
    out = tmp_path / "runs.csv"
    trace = tmp_path / "trace.csv"
    result = invoke(runner, ["simulate", "--graph", str(graph_path), "--policy", "periodic",
                             "--sequence", "0,1,2,3", "--horizon", "400",
                             "--trace", str(trace), "-o", str(out)])
    assert result.exit_code == 0, result.output
    rows = read_csv(trace)
    assert list(rows[0].keys()) == ["t", "m", "A_0", "A_1", "A_2", "A_3"]
    assert len(rows) == 400


@pytest.mark.parametrize("burn_in", ["-1", "100"])
def test_simulate_periodic_rejects_negative_burn_in(runner, tmp_path, burn_in):
    graph_path = tmp_path / "g.json"
    invoke(runner, ["graph", "--family", "ring", "--n", "5", "--k", "1", "-o", str(graph_path)])
    result = runner.invoke(main, ["simulate", "--graph", str(graph_path), "--policy", "periodic",
                                  "--sequence", "0,1,2,3,4", "--horizon", "100",
                                  "--burn-in", burn_in, "-o", str(tmp_path / "runs.csv")])
    assert result.exit_code == EXIT_VALIDATION
    assert "burn_in" in result.output


@pytest.mark.parametrize("policy, simulator, extra", [
    ("age_based", "simulate_age_based", []),
    ("periodic", "simulate_periodic", ["--sequence", "0,1,2,3,4"]),
])
def test_deterministic_policies_run_once(runner, tmp_path, monkeypatch, policy, simulator,
                                         extra):
    graph_path = tmp_path / "g.json"
    invoke(runner, ["graph", "--family", "ring", "--n", "5", "--k", "1", "-o", str(graph_path)])
    calls = []
    original = getattr(cli, simulator)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, simulator, counted)
    out = tmp_path / "runs.csv"
    result = invoke(runner, ["simulate", "--graph", str(graph_path), "--policy", policy,
                             "--horizon", "500", "--seeds", "4,5,6", "--jobs", "1",
                             "-o", str(out)] + extra)
    assert result.exit_code == 0, result.output
    assert len(calls) == 1
    rows = read_csv(out)
    assert [(r["row_type"], r["seed"]) for r in rows] == [("replication", "4"),
                                                          ("aggregate", "")]
    assert rows[1]["network_avg"] == rows[0]["network_avg"]
    assert (rows[1]["peak_stderr"], rows[1]["avg_stderr"]) == ("0.0", "0.0")


def test_simulate_determinism(runner, tmp_path):
    graph_path = tmp_path / "g.json"
    invoke(runner, ["graph", "--family", "ring", "--n", "5", "--k", "2", "-o", str(graph_path)])
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        invoke(runner, ["simulate", "--graph", str(graph_path), "--policy", "fastest",
                        "--horizon", "3000", "--seeds", "4", "-o", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_simulate_parallel_jobs_match_serial(runner, tmp_path):
    graph_path = tmp_path / "g.json"
    invoke(runner, ["graph", "--family", "ring", "--n", "6", "--k", "2", "-o", str(graph_path)])
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    base = ["simulate", "--graph", str(graph_path), "--policy", "mh", "--horizon", "3000",
            "--seeds", "1,2,3"]
    invoke(runner, base + ["--jobs", "1", "-o", str(serial)])
    invoke(runner, base + ["--jobs", "2", "-o", str(parallel)])
    assert serial.read_bytes() == parallel.read_bytes()


def test_simulate_config_file(runner, tmp_path):
    graph_path = tmp_path / "g.json"
    invoke(runner, ["graph", "--family", "ring", "--n", "5", "--k", "1", "-o", str(graph_path)])
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "runs.csv"
    cfg.write_text(json.dumps({
        "graph": str(graph_path), "policy": "age_based",
        "horizon": 2000, "replications": 2, "seeds": [3, 4], "output": str(out),
    }))
    result = invoke(runner, ["simulate", "--config", str(cfg)])
    assert result.exit_code == 0, result.output
    rows = read_csv(out)
    # the deterministic age-based walk runs once, for the first seed
    assert [r["seed"] for r in rows] == ["3", ""]
    assert rows[0]["policy"] == "age_based"
    assert rows[0]["horizon"] == "2000"


def test_simulate_config_inline_graph_and_flag_precedence(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "graph": {"family": "ring", "n": 6, "k": 2,
                  "weights": {"mode": "random_interval", "lo": 1, "hi": 2, "seed": 8}},
        "policy": "mh", "horizon": 1000, "seeds": [5],
    }))
    out = tmp_path / "runs.csv"
    # explicit --horizon must beat the config value
    result = invoke(runner, ["simulate", "--config", str(cfg), "--horizon", "2000",
                             "-o", str(out)])
    assert result.exit_code == 0, result.output
    rows = read_csv(out)
    assert rows[0]["horizon"] == "2000"
    assert rows[0]["seed"] == "5"


def test_simulate_config_rejects_unknown_keys(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": "x.json", "horizons": 10}))
    result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                  "-o", str(tmp_path / "o.csv")])
    assert result.exit_code == 2


def test_disseminate_with_report_and_events(runner, tmp_path):
    graph_path = tmp_path / "g.json"
    invoke(runner, ["graph", "--family", "geometric", "--n", "8", "--r", "0.7",
                    "--seed", "2", "-o", str(graph_path)])
    out = tmp_path / "diss.csv"
    report = tmp_path / "report.json"
    events = tmp_path / "events.csv"
    result = invoke(runner, ["disseminate", "--graph", str(graph_path),
                             "--horizon", "20000", "--replications", "2",
                             "--report", str(report), "--events", str(events),
                             "-o", str(out)])
    assert result.exit_code == 0, result.output
    rows = read_csv(out)
    assert rows[-1]["row_type"] == "aggregate"
    payload = json.loads(report.read_text())
    assert "hard_checks" in payload
    event_rows = read_csv(events)
    assert set(r["event"] for r in event_rows) <= {"arrive", "deliver", "move"}


def test_disseminate_report_describes_the_first_replication(runner, tmp_path):
    # the report used to describe the last replication, the event log the first
    graph_path = tmp_path / "g.json"
    invoke(runner, ["graph", "--family", "ring", "--n", "8", "--k", "2", "-o", str(graph_path)])
    out = tmp_path / "diss.csv"
    report = tmp_path / "report.json"
    result = invoke(runner, ["disseminate", "--graph", str(graph_path), "--horizon", "5000",
                             "--seeds", "5,6", "--report", str(report), "-o", str(out)])
    assert result.exit_code == 0, result.output
    first, second = read_csv(out)[:2]
    assert (first["seed"], second["seed"]) == ("5", "6")
    assert first["network_peak"] != second["network_peak"]
    network = json.loads(report.read_text())["network"]
    assert repr(network["empirical_peak"]) == first["network_peak"]
    assert repr(network["empirical_avg"]) == first["network_avg"]


@pytest.mark.parametrize("policy, exit_code", [
    ("separation", 0), (None, 0), ("mh", 2), ("fastest", 2), ("age_based", 2), ("periodic", 2),
    ("bogus", 2)])
def test_disseminate_config_runs_only_the_separation_policy(runner, tmp_path, policy,
                                                            exit_code):
    # "separation", the policy every row names, used to be a usage error, and a gathering
    # policy used to be accepted and silently replaced by the separation policy
    graph_path = tmp_path / "g.json"
    invoke(runner, ["graph", "--family", "ring", "--n", "6", "--k", "1", "-o", str(graph_path)])
    out = tmp_path / "diss.csv"
    payload = {"graph": str(graph_path), "horizon": 2000, "sequence": [0, 1, 2, 3, 4, 5],
               "output": str(out)}
    if policy is not None:
        payload["policy"] = policy
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    result = runner.invoke(main, ["disseminate", "--config", str(cfg)])
    assert result.exit_code == exit_code, result.output
    if exit_code:
        assert "policy must be one of ('separation',)" in result.output
        assert not out.exists()
    else:
        assert {r["policy"] for r in read_csv(out)} == {"separation"}


@pytest.mark.parametrize("policy", [*cli.POLICIES, None])
def test_simulate_config_keeps_its_four_policies(runner, tmp_path, policy):
    graph_path = tmp_path / "g.json"
    invoke(runner, ["graph", "--family", "ring", "--n", "6", "--k", "1", "-o", str(graph_path)])
    out = tmp_path / "runs.csv"
    payload = {"graph": str(graph_path), "horizon": 600, "sequence": [0, 1, 2, 3, 4, 5],
               "output": str(out)}
    if policy is not None:
        payload["policy"] = policy
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    result = invoke(runner, ["simulate", "--config", str(cfg)])
    assert result.exit_code == 0, result.output
    assert {r["policy"] for r in read_csv(out)} == {policy or "mh"}
    cfg.write_text(json.dumps(dict(payload, policy="separation")))
    result = runner.invoke(main, ["simulate", "--config", str(cfg)])
    assert result.exit_code == 2, result.output
    assert "policy must be one of" in result.output


def test_design_zero_max_iterations_runs_no_solver_iteration(runner, tmp_path):
    # 0 used to read as "not given" and run the default cap (1460 iterations here)
    graph_path = tmp_path / "g.json"
    invoke(runner, ["graph", "--family", "ring", "--n", "8", "--k", "1", "-o", str(graph_path)])
    result = invoke(runner, ["design", "--graph", str(graph_path), "--method", "fastest",
                             "--max-iterations", "0"])
    assert result.exit_code == 0, result.output
    assert "(iterations 0, converged False)" in result.output


@pytest.mark.parametrize("command", ["design", "reproduce"])
def test_negative_iteration_count_is_usage_error(runner, tmp_path, command):
    # design exited 3 with numpy's "negative dimensions are not allowed"; reproduce
    # failed every sweep point with it, then exited 0 with empty CSVs
    graph_path = tmp_path / "g.json"
    invoke(runner, ["graph", "--family", "ring", "--n", "8", "--k", "1", "-o", str(graph_path)])
    if command == "design":
        args = ["design", "--graph", str(graph_path), "--method", "fastest",
                "--max-iterations", "-3"]
    else:
        args = ["reproduce", "--figure", "fig4", "--out-dir", str(tmp_path / "sweep"),
                "--sizes", "10", "--horizon", "500", "--solver-iterations", "-2"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "iterations" in result.output
    assert not (tmp_path / "sweep" / "fig4.csv").exists()


@pytest.mark.parametrize("figure, sizes", [("fig6", "9,10,12"), ("all", "10"), ("fig6", "1")])
def test_reproduce_grid_size_that_is_not_a_square_is_usage_error(runner, tmp_path, figure,
                                                                 sizes):
    # fig6 --sizes 9,10,12 used to write 12 rows, all labelled n=9
    out_dir = tmp_path / "sweep"
    result = runner.invoke(main, ["reproduce", "--figure", figure, "--out-dir", str(out_dir),
                                  "--sizes", sizes, "--horizon", "500",
                                  "--solver-iterations", "10"])
    assert result.exit_code == 2, result.output
    assert "grid sizes must be squares" in result.output
    assert not out_dir.exists()


@pytest.mark.parametrize("args, message", [
    (["--figure", "fig7", "--sizes", "5,6"], "ring sizes must be at least 7, not [5, 6]"),
    (["--figure", "fig5", "--sizes", "1,10"], "geometric sizes must be at least 2, not [1]"),
    (["--figure", "fig5", "--sizes", "10,20", "--horizon", "0"], "--horizon"),
    (["--figure", "fig5", "--sizes", "10", "--base-seed", "-50"], "--base-seed"),
    # an empty size list used to run the whole default sweep
    (["--figure", "fig5", "--sizes", ","], "--sizes lists no size"),
    (["--figure", "all", "--sizes", ""], "--sizes lists no size"),
], ids=["small-ring", "small-geometric", "zero-horizon", "negative-seed", "empty-sizes",
        "blank-sizes"])
def test_reproduce_arguments_no_sweep_point_can_run_are_usage_errors(runner, tmp_path, args,
                                                                     message):
    # each failed every sweep point, wrote header-only CSVs and exited 0
    out_dir = tmp_path / "sweep"
    result = runner.invoke(main, ["reproduce", "--out-dir", str(out_dir),
                                  "--solver-iterations", "10", "--horizon", "500", *args])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not out_dir.exists()


@pytest.mark.parametrize("need_dissemination", [False, True])
def test_sweep_point_holds_only_what_a_figure_reads(need_dissemination):
    point = cli._sweep_point(("geometric", 10, 1, 2000, 20, need_dissemination))
    read = {key for _, _, columns in cli.FIGURES.values() for _, key in columns}
    if not need_dissemination:
        read.discard("dissemination_avg")
    assert set(point) == {"family", "n"} | read
    g = cli._sweep_graph("geometric", 10, 1)
    assert point["lower_bound"] == average_age_lower_bound(g.weights)


def test_reproduce_fig4_schema(runner, tmp_path):
    out_dir = tmp_path / "sweep"
    result = invoke(runner, ["reproduce", "--figure", "fig4", "--out-dir", str(out_dir),
                             "--sizes", "10,15", "--horizon", "4000",
                             "--solver-iterations", "300"])
    assert result.exit_code == 0, result.output
    rows = read_csv(out_dir / "fig4.csv")
    assert list(rows[0].keys()) == SWEEP_CSV_FIELDS
    assert {r["policy"] for r in rows} == {"mh", "fastest_mixing", "age_based"}
    assert {int(r["n"]) for r in rows} == {10, 15}


def test_reproduce_fig8_dissemination_rows(runner, tmp_path):
    out_dir = tmp_path / "sweep"
    result = invoke(runner, ["reproduce", "--figure", "fig8", "--out-dir", str(out_dir),
                             "--sizes", "10", "--horizon", "4000",
                             "--solver-iterations", "300"])
    assert result.exit_code == 0, result.output
    rows = read_csv(out_dir / "fig8.csv")
    policies = {r["policy"] for r in rows}
    assert policies == {"fastest_mixing", "separation"}
    values = {r["policy"]: float(r["value"]) for r in rows}
    assert values["separation"] >= values["fastest_mixing"]


def test_missing_graph_file_is_validation_error(runner, tmp_path):
    missing = tmp_path / "missing.json"
    missing.write_text("{}")
    result = runner.invoke(main, ["design", "--graph", str(missing), "--method", "mh"])
    assert result.exit_code == 3


def test_disseminate_rejects_a_design_of_another_graph(runner, tmp_path):
    # a design built on ring-8 with k=2 used to be walked along the non-edges of k=1
    for k in ("1", "2"):
        invoke(runner, ["graph", "--family", "ring", "--n", "8", "--k", k,
                        "-o", str(tmp_path / f"g{k}.json")])
    design_path = tmp_path / "d2.json"
    invoke(runner, ["design", "--graph", str(tmp_path / "g2.json"), "--method", "mh",
                    "-o", str(design_path)])
    out = tmp_path / "diss.csv"
    result = runner.invoke(main, ["disseminate", "--graph", str(tmp_path / "g1.json"),
                                  "--design", str(design_path), "--horizon", "1000",
                                  "-o", str(out)])
    assert result.exit_code == EXIT_VALIDATION
    assert "non-edges of the graph" in result.output
    assert not out.exists()


def test_disseminate_rejects_design_with_nan(runner, tmp_path):
    graph_path = tmp_path / "g.json"
    invoke(runner, ["graph", "--family", "ring", "--n", "9", "--k", "2", "-o", str(graph_path)])
    design_path = tmp_path / "design.json"
    invoke(runner, ["design", "--graph", str(graph_path), "--method", "mh",
                    "-o", str(design_path)])
    payload = json.loads(design_path.read_text())
    payload["matrix"][0][0] = float("nan")
    design_path.write_text(json.dumps(payload))
    result = runner.invoke(main, ["disseminate", "--graph", str(graph_path),
                                  "--design", str(design_path), "--horizon", "1000",
                                  "-o", str(tmp_path / "diss.csv")])
    assert result.exit_code == EXIT_VALIDATION
    assert "finite" in result.output


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_disseminate_bad_rate_scale_is_usage_error(runner, tmp_path, scale, source):
    # a NaN scale used to exit 0 with no packet ever generated
    graph_path = tmp_path / "g.json"
    invoke(runner, ["graph", "--family", "ring", "--n", "9", "--k", "2", "-o", str(graph_path)])
    out = tmp_path / "diss.csv"
    args = ["disseminate", "--graph", str(graph_path), "--horizon", "5000", "-o", str(out)]
    if source == "flag":
        args += ["--rate-scale", scale]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rate_scale": float(scale)}))  # NaN and Infinity literals
        args += ["--config", str(cfg)]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "rate_scale" in result.output
    assert not out.exists()


@pytest.mark.parametrize("payload", [{}, {"matrix": [[0.5, 0.5], [0.5, 0.5]]}])
def test_disseminate_malformed_design_is_validation_error(runner, tmp_path, payload):
    graph_path = tmp_path / "g.json"
    invoke(runner, ["graph", "--family", "ring", "--n", "5", "--k", "1", "-o", str(graph_path)])
    design_path = tmp_path / "bad.json"
    design_path.write_text(json.dumps(payload))
    result = runner.invoke(main, ["disseminate", "--graph", str(graph_path),
                                  "--design", str(design_path), "--horizon", "1000",
                                  "-o", str(tmp_path / "diss.csv")])
    assert result.exit_code == EXIT_VALIDATION
    assert "lacks the key" in result.output


def test_config_inline_graph_without_size_is_usage_error(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": {"family": "ring", "k": 2}, "horizon": 1000}))
    result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                  "-o", str(tmp_path / "o.csv")])
    assert result.exit_code == 2
    assert "needs n" in result.output


def test_config_inline_graph_with_string_size_is_usage_error(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": {"family": "ring", "n": "6"}, "horizon": 1000}))
    result = runner.invoke(main, ["simulate", "--config", str(cfg),
                                  "-o", str(tmp_path / "o.csv")])
    assert result.exit_code == 2
    assert "must be an integer" in result.output


@pytest.mark.parametrize("command", ["simulate", "disseminate"])
def test_empty_seed_list_is_usage_error(runner, tmp_path, command):
    graph_path = tmp_path / "g.json"
    invoke(runner, ["graph", "--family", "ring", "--n", "5", "--k", "1", "-o", str(graph_path)])
    out = tmp_path / "o.csv"
    result = runner.invoke(main, [command, "--graph", str(graph_path), "--seeds", ",",
                                  "--horizon", "100", "-o", str(out)])
    assert result.exit_code == 2
    assert "seed list is empty" in result.output
    assert not out.exists()


def _counting(monkeypatch, name, seeds):
    original = getattr(cli, name)

    def counted(*args, **kwargs):
        seeds.append(kwargs["seed"])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, counted)
    return original


def test_first_replication_records_without_a_rerun(runner, tmp_path, monkeypatch):
    graph_path = tmp_path / "g.json"
    invoke(runner, ["graph", "--family", "ring", "--n", "5", "--k", "1", "-o", str(graph_path)])
    g = load_graph(graph_path)

    seeds = []
    simulate_randomized = _counting(monkeypatch, "simulate_randomized", seeds)
    trace_path = tmp_path / "trace.csv"
    result = invoke(runner, ["simulate", "--graph", str(graph_path), "--policy", "mh",
                             "--horizon", "2000", "--seeds", "1,2", "--trace", str(trace_path),
                             "-o", str(tmp_path / "runs.csv")])
    assert result.exit_code == 0, result.output
    assert seeds == [1, 2]
    _, trace = simulate_randomized(g, cli.build_mh(g).matrix, 2000, seed=1, record_trace=True)
    assert read_csv(trace_path)[0] == {"t": "1", "m": str(trace.visit_log[0]),
                                       **{f"A_{i}": str(a) for i, a in enumerate(trace.ages[0])}}

    seeds = []
    simulate_dissemination = _counting(monkeypatch, "simulate_dissemination", seeds)
    events_path = tmp_path / "events.csv"
    result = invoke(runner, ["disseminate", "--graph", str(graph_path), "--horizon", "2000",
                             "--seeds", "3,4", "--events", str(events_path),
                             "-o", str(tmp_path / "diss.csv")])
    assert result.exit_code == 0, result.output
    assert seeds == [3, 4]
    policy = cli.separation_policy(g, design=cli.build_fastest_mixing(g))
    _, events = simulate_dissemination(g, policy, 2000, seed=3, record_events=True)
    t, kind, terminal, generated = events[0]
    assert read_csv(events_path)[0] == {"t": str(t), "event": kind, "terminal": str(terminal),
                                        "generated": "" if generated is None else str(generated)}


def test_each_design_is_analyzed_once(runner, tmp_path, monkeypatch):
    matrices = []
    original = markov.analyze

    def counted(P, *args, **kwargs):
        matrices.append(id(P))
        return original(P, *args, **kwargs)

    monkeypatch.setattr(markov, "analyze", counted)
    # a fig8 sweep point analyzes its MH and its fastest-mixing design
    point = cli._sweep_point(("geometric", 10, 1, 2000, 100, True))
    assert "dissemination_avg" in point
    assert len(matrices) == len(set(matrices)) == 2

    matrices.clear()
    graph_path = tmp_path / "g.json"
    invoke(runner, ["graph", "--family", "ring", "--n", "8", "--k", "2", "-o", str(graph_path)])
    result = invoke(runner, ["disseminate", "--graph", str(graph_path), "--horizon", "2000",
                             "--rate-scale", "0.5", "-o", str(tmp_path / "diss.csv")])
    assert result.exit_code == 0, result.output
    assert len(matrices) == 1


def test_figure_rows_follow_the_sweep_contents_table():
    point = {"n": 9, "mh_peak": 1.0, "mh_avg": 2.0, "fastest_peak": 3.0, "fastest_avg": 4.0,
             "age_based_peak": 5.0, "age_based_avg": 6.0, "lower_bound": 7.0,
             "dissemination_avg": 8.0}
    gathering = ["mh", "fastest_mixing", "age_based"]
    expected = {
        "fig4": ("peak_age", gathering, [1.0, 3.0, 5.0]),
        "fig5": ("avg_age", gathering + ["lower_bound"], [2.0, 4.0, 6.0, 7.0]),
        "fig6": ("avg_age", gathering + ["lower_bound"], [2.0, 4.0, 6.0, 7.0]),
        "fig7": ("avg_age", gathering + ["lower_bound"], [2.0, 4.0, 6.0, 7.0]),
        "fig8": ("avg_age", ["fastest_mixing", "separation"], [4.0, 8.0]),
    }
    assert set(cli.FIGURES) == set(expected)
    for fig, (metric, policies, values) in expected.items():
        rows = cli._figure_rows(fig, [point, dict(point, n=16)])
        assert [r["n"] for r in rows] == [9] * len(policies) + [16] * len(policies)
        assert [r["policy"] for r in rows] == policies * 2
        assert {r["metric"] for r in rows} == {metric}
        assert [r["value"] for r in rows] == values * 2
        assert {r["stderr"] for r in rows} == {0.0}


def test_disseminate_rejects_design_whose_pi_is_not_a_distribution(runner, tmp_path):
    # a doubled target_pi is still a left fixed point of P, so only its sum betrays it
    graph_path = tmp_path / "g.json"
    design_path = tmp_path / "d.json"
    invoke(runner, ["graph", "--family", "ring", "--n", "9", "--k", "2", "-o", str(graph_path)])
    invoke(runner, ["design", "--graph", str(graph_path), "--method", "mh",
                    "-o", str(design_path)])
    payload = json.loads(design_path.read_text())
    payload["target_pi"] = [2.0 * x for x in payload["target_pi"]]
    design_path.write_text(json.dumps(payload))
    result = runner.invoke(main, ["disseminate", "--graph", str(graph_path),
                                  "--design", str(design_path), "--horizon", "2000",
                                  "-o", str(tmp_path / "diss.csv")])
    assert result.exit_code == EXIT_VALIDATION
    assert "not a positive distribution" in result.output


@pytest.mark.parametrize("payload", [
    ["graph", "horizon"],
    {"horizon": "100"},
    {"rate_scale": "2"},
    {"policy": "bogus"},
    {"seeds": ["a"]},
    {"seeds": [1.5]},
    {"seeds": [True]},
    {"graph": 5},
    {"output": 7},
    {"report": 3},
    {"sequence": [0.9]},
    {"sequence": "abc"},
    {"graph": {"family": "geometric", "n": 30, "r": "x"}},
    {"graph": {"family": "ring", "n": 9, "weights": 5}},
    {"graph": {"family": "ring", "n": 9, "weights": {"mode": "random_interval", "lo": "a"}}},
    {"graph": {"family": "ring", "n": 9, "weights": {"mode": "random_interval", "hi": "b"}}},
    '{"graph": "g.json",',
    {"seeds": [[1], [2]]},
    {"policy": "age_based", "g_fn": "identity"},
    # an unknown key in an inline spec or in its weights used to be ignored
    {"graph": {"family": "ring", "n": 12, "kk": 1}},
    {"graph": {"family": "ring", "n": 12, "weights": {"mode": "uniform", "hgh": 3}}},
], ids=["list", "string-horizon", "string-rate-scale", "unknown-policy", "string-seed",
        "float-seed", "bool-seed", "number-graph", "number-output", "number-report",
        "fraction-sequence", "string-sequence", "inline-string-radius", "inline-number-weights",
        "inline-string-lo", "inline-string-hi", "invalid-json", "nested-seeds", "removed-g-fn",
        "inline-unknown-key", "inline-unknown-weights-key"])
def test_bad_config_file_is_usage_error(runner, tmp_path, payload):
    graph_path = tmp_path / "g.json"
    invoke(runner, ["graph", "--family", "ring", "--n", "5", "--k", "1", "-o", str(graph_path)])
    cfg = tmp_path / "cfg.json"
    if isinstance(payload, dict):
        payload = {"graph": str(graph_path), "output": str(tmp_path / "o.csv"), **payload}
    cfg.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    result = runner.invoke(main, ["simulate", "--config", str(cfg)])
    assert result.exit_code == 2, result.output
    assert "config" in result.output
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("flag, value", [("--seeds", "a,b"), ("--sequence", "0,1,x"),
                                         ("--seeds", "1.5"), ("--sizes", "9,a")])
def test_bad_integer_list_flag_is_usage_error(runner, tmp_path, flag, value):
    graph_path = tmp_path / "g.json"
    invoke(runner, ["graph", "--family", "ring", "--n", "5", "--k", "1", "-o", str(graph_path)])
    out = tmp_path / "o.csv"
    if flag == "--sizes":
        args = ["reproduce", "--figure", "fig4", "--out-dir", str(tmp_path / "sweep")]
    else:
        args = ["simulate", "--graph", str(graph_path), "--policy", "periodic",
                "--sequence", "0,1,2,3,4", "--horizon", "100", "-o", str(out)]
    result = runner.invoke(main, args + [flag, value])
    assert result.exit_code == 2, result.output
    assert flag in result.output and "comma-separated list of integers" in result.output
    assert not out.exists() and not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("value", ["abc", "1,5", ""])
def test_bad_radius_flag_is_usage_error(runner, tmp_path, value):
    out = tmp_path / "g.json"
    result = runner.invoke(main, ["graph", "--family", "geometric", "--n", "9", "--r", value,
                                  "-o", str(out)])
    assert result.exit_code == 2, result.output
    assert "--r" in result.output and "neither a number nor 'auto'" in result.output
    assert not out.exists()


def test_config_values_lose_only_to_flags_given(runner, tmp_path):
    # every shared flag the user gives beats the config; the rest keep its values
    graph_path = tmp_path / "g.json"
    invoke(runner, ["graph", "--family", "ring", "--n", "5", "--k", "1", "-o", str(graph_path)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": {"family": "ring", "n": 7, "k": 1}, "horizon": 700,
                               "burn_in": 70, "seeds": [8, 9], "start": 2, "policy": "periodic",
                               "sequence": [0, 1, 2, 3, 4, 5, 6],
                               "output": str(tmp_path / "cfg.csv")}))
    out = tmp_path / "flags.csv"
    invoke(runner, ["simulate", "--config", str(cfg), "--graph", str(graph_path),
                    "--horizon", "500", "--seeds", "3", "--sequence", "0,1,2,3,4",
                    "-o", str(out)])
    rows = read_csv(out)
    assert [(r["seed"], r["horizon"], r["burn_in"]) for r in rows] == [
        ("3", "500", "70"), ("", "500", "70")]
    assert not (tmp_path / "cfg.csv").exists()
    result = invoke(runner, ["simulate", "--config", str(cfg)])
    assert result.exit_code == 0, result.output
    # a periodic replay runs once, for the config's first seed
    assert [r["seed"] for r in read_csv(tmp_path / "cfg.csv")] == ["8", ""]


def test_experiment_config_json_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "graph": {"family": "ring", "n": 6, "weights": {"mode": "random_interval", "seed": 2}},
        "seeds": [1, 2], "sequence": [0, 1], "rate_scale": 0.5}))
    cfg = cli.ExperimentConfig.load(path)
    assert cfg.graph == cli.GraphSpec("ring", n=6, weights=cli.WeightSpec("random_interval",
                                                                          seed=2))
    assert (cfg.seeds, cfg.sequence, cfg.rate_scale) == ([1, 2], [0, 1], 0.5)
    assert cli.ExperimentConfig.from_json(json.loads(json.dumps(cfg.to_json()))) == cfg


def test_recorded_log_past_the_horizon_limit_is_validation_error(runner, tmp_path):
    graph_path = tmp_path / "g.json"
    invoke(runner, ["graph", "--family", "ring", "--n", "5", "--k", "1", "-o", str(graph_path)])
    out, events = tmp_path / "diss.csv", tmp_path / "e.csv"
    result = runner.invoke(main, ["disseminate", "--graph", str(graph_path),
                                  "--horizon", "100001", "--seeds", "1",
                                  "--events", str(events), "-o", str(out)])
    assert result.exit_code == EXIT_VALIDATION, result.output
    assert "event logs are limited" in result.output
    assert not out.exists() and not events.exists()
