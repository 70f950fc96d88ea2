import csv
import json

import pytest
from click.testing import CliRunner

from age_patrol import cli, load_graph
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


def test_jobs_env_variable_default(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("AGE_PATROL_JOBS", "2")
    graph_path = tmp_path / "g.json"
    invoke(runner, ["graph", "--family", "ring", "--n", "5", "--k", "1", "-o", str(graph_path)])
    out = tmp_path / "runs.csv"
    result = invoke(runner, ["simulate", "--graph", str(graph_path), "--policy", "mh",
                             "--horizon", "2000", "--seeds", "1,2", "-o", str(out)])
    assert result.exit_code == 0, result.output
    assert len(read_csv(out)) == 3


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
    assert len(rows) == 3
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
], ids=["list", "string-horizon", "string-rate-scale", "unknown-policy"])
def test_bad_config_file_is_usage_error(runner, tmp_path, payload):
    graph_path = tmp_path / "g.json"
    invoke(runner, ["graph", "--family", "ring", "--n", "5", "--k", "1", "-o", str(graph_path)])
    cfg = tmp_path / "cfg.json"
    if isinstance(payload, dict):
        payload = {"graph": str(graph_path), "output": str(tmp_path / "o.csv"), **payload}
    cfg.write_text(json.dumps(payload))
    result = runner.invoke(main, ["simulate", "--config", str(cfg)])
    assert result.exit_code == 2, result.output
    assert "config" in result.output
