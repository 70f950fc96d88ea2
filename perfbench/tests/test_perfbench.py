"""Tests of the benchmark's own code: span arithmetic, inputs and oracles.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import dataclasses
import math

import numpy as np
import pytest

from age_patrol import (AgeStats, TransitionMatrix, analytic_ages, analyze, assign_weights,
                        build_mh, generate_random_geometric, generate_ring_k, markov,
                        separation_policy)

import golden
import oracles
import workloads
from tracer import Span, Tracer, layer_metrics, self_times


def _span(name, start, end, parent=None, **info):
    return Span(name, start, end, parent, "r", info)


def test_self_time_of_nested_spans():
    spans = [
        _span("cli.reproduce", 0.0, 10.0),
        _span("trajectory_design.build_fastest_mixing", 1.0, 4.0, 0,
              iterations=10, converged=True),
        _span("trajectory_design.design_objective", 2.0, 3.0, 1),
        _span("markov.analyze", 5.0, 9.0, 0),
        _span("markov.slem", 6.0, 6.5, 3),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.5, 0.5])
    m = layer_metrics(spans, wall_s=10.0)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["trajectory_design.self_s"] == pytest.approx(3.0)
    assert m["markov.self_s"] == pytest.approx(4.0)
    assert m["trajectory_design.self_share"] == pytest.approx(0.3)
    assert m["trajectory_design.fastest_iters"] == 10
    assert m["trajectory_design.fastest_iter_ms"] == pytest.approx(300.0)
    # ten iterations priced at the call's own one-second objective, over a 3 s solve
    assert m["trajectory_design.svd_share_est"] == pytest.approx(10.0 / 3.0)
    assert m["markov.analyze_calls"] == 1


def test_self_time_counts_overlapping_children_once():
    spans = [_span("markov.analyze", 0.0, 10.0), _span("markov.slem", 1.0, 5.0, 0),
             _span("markov.fundamental_matrix", 3.0, 7.0, 0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_tracer_records_child_spans_and_restores_bindings():
    g = generate_ring_k(7, 2)
    design = build_mh(g)
    original = markov.analyze
    tracer = Tracer()
    with tracer.installed():
        assert markov.analyze is not original
        markov.analyze(design.matrix)
    assert markov.analyze is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "markov.analyze"
    stationary = names.index("markov.stationary_distribution")
    assert tracer.spans[stationary].parent == 0
    assert tracer.missing == []


def test_workload_inputs_are_deterministic_per_seed(tmp_path):
    a = workloads.Simulate(5, tmp_path).setup()
    b = workloads.Simulate(5, tmp_path).setup()
    c = workloads.Simulate(6, tmp_path).setup()
    assert a.graph.edges == b.graph.edges
    assert np.array_equal(a.graph.weights, b.graph.weights)
    assert np.array_equal(a.design.matrix.p, b.design.matrix.p)
    assert (a.lam, a.service, a.vacation) == (b.lam, b.service, b.vacation)
    assert a.graph.edges != c.graph.edges
    assert workloads.Scale(5, tmp_path).setup() == workloads.Scale(5, tmp_path).setup()
    assert workloads.Scale(5, tmp_path).setup() != workloads.Scale(6, tmp_path).setup()
    argv = workloads.Figures(5, tmp_path).setup()
    assert argv == workloads.Figures(5, tmp_path).setup()
    assert argv[argv.index("--base-seed") + 1] == "5"
    assert argv[argv.index("--jobs") + 1] == "1"


@pytest.fixture(scope="module")
def instance():
    g = generate_random_geometric(12, 2 / math.sqrt(12), 5)
    g = assign_weights(g, "random_interval", seed=6)
    design = build_mh(g)
    analysis = analyze(design.matrix, pi=design.target_pi)
    return g, design, analysis, analytic_ages(analysis, g.weights)


def test_design_oracle_flags_perturbed_matrix(instance):
    g, design, _, _ = instance
    assert oracles.check_design(design, g) == []
    p = design.matrix.p.copy()
    i = 0
    j = g.neighbors[0][0]
    shift = p[i, j] / 2
    p[i, j] -= shift           # row sums stay 1, stationarity breaks
    p[i, i] += shift
    bad = dataclasses.replace(design, matrix=TransitionMatrix(p))
    assert any("stationary" in msg for msg in oracles.check_design(bad, g))


def test_peak_identity_oracle_flags_perturbed_target(instance):
    g, design, _, _ = instance
    pi = design.target_pi.copy()
    pi[0] *= 1 + 1e-6
    bad = dataclasses.replace(design, target_pi=pi)
    assert any("peak identity" in msg for msg in oracles.check_design(bad, g))


def test_age_oracle_flags_values_outside_bounds(instance):
    _, _, analysis, report = instance
    assert oracles.check_ages(analysis, report) == []
    low = dataclasses.replace(report, network_avg=report.lower_bound_avg * 0.99)
    high = dataclasses.replace(report, network_avg=report.upper_bound_avg * 1.01)
    assert oracles.check_ages(analysis, low) and oracles.check_ages(analysis, high)
    pi = analysis.pi.copy()
    pi[0] += 1e-6
    broken = dataclasses.replace(analysis, pi=pi)
    assert any("validate" in msg for msg in oracles.check_ages(broken, report))


def test_t_distribution_matches_scipy():
    from scipy import stats
    for df in (1, 2, 3, 6, 7):
        for t in (-3.0, 0.0, 0.4, 2.5, 40.0):
            assert oracles.t_cdf(t, df) == pytest.approx(stats.t.cdf(t, df), abs=1e-14)
    for tests in (1, 200):
        q = stats.t.ppf(1 - oracles.FAMILY_ALPHA / (2 * tests), oracles.BATCHES - 1)
        assert oracles.t_quantile(tests) == pytest.approx(q, rel=1e-10)


def test_interval_oracle_flags_shifted_mean():
    samples = 10.0 + np.linspace(-0.1, 0.1, oracles.BATCHES)
    mean, half = oracles.batch_interval(samples)
    assert oracles.check_interval(samples, mean + 0.9 * half, "x") == []
    assert oracles.check_interval(samples, mean + 1.1 * half, "x")
    assert oracles.check_lower_bound(5.0, 4.0, "x") == []
    assert oracles.check_lower_bound(3.9, 4.0, "x")


def test_dissemination_oracle_flags_peak_above_bound(instance):
    g, design, _, _ = instance
    policy = separation_policy(g, design=design)
    jitter = 1 + 1e-3 * np.linspace(-1, 1, oracles.BATCHES)

    def batches(peaks, avg_share=0.5):
        return [AgeStats(per_terminal_peak=peaks * j, per_terminal_avg=peaks * j * avg_share,
                         n_peaks=np.full(g.n, 100), network_peak=0.0, network_avg=0.0,
                         horizon=1000, burn_in=20) for j in jitter]

    good = policy.upper_bounds * 0.9
    assert oracles.check_dissemination(policy, batches(good), g.weights) == []
    assert oracles.report_hard_checks(policy, batches(good), g.weights) == []
    over = good.copy()
    over[3] = policy.upper_bounds[3] * 1.05
    assert any("terminal 3" in msg
               for msg in oracles.check_dissemination(policy, batches(over), g.weights))
    assert oracles.report_hard_checks(policy, batches(over), g.weights) == ["peak_bounds_pass"]
    assert any("network peak" in msg for msg in oracles.check_dissemination(
        policy, batches(policy.upper_bounds * 1.05), g.weights))
    assert any("average age exceeds" in msg for msg in oracles.check_dissemination(
        policy, batches(good, avg_share=1.05), g.weights))
    unvisited = good.copy()
    unvisited[0] = np.nan
    assert oracles.check_dissemination(policy, batches(unvisited), g.weights)


def test_objective_oracle_flags_value_below_slem():
    assert oracles.check_objective(0.6, 0.5) == []
    assert oracles.check_objective(0.4, 0.5)
    assert oracles.check_objective(math.nan, 0.5)


def test_sweep_oracle_flags_missing_row():
    tables = {fig: [{"n": "16", "policy": p} for p in policies]
              for fig, (_, policies) in oracles.FIGURE_POLICIES.items()}
    assert oracles.check_sweep_point("geometric", 16, tables) == []
    assert oracles.check_sweep_point("grid", 16, tables) == []
    tables["fig8"] = [row for row in tables["fig8"] if row["policy"] != "separation"]
    assert oracles.check_sweep_point("geometric", 16, tables)
    assert oracles.check_sweep_point("geometric", 25, tables)


def test_golden_comparison_statuses():
    assert golden.compare_entry(1.5, 1.5) == "bit-exact"
    assert golden.compare_entry(1.5, 1.5 * (1 + 1e-14)) == "within 1e-12"
    assert golden.compare_entry(1.5, 1.5001) == "mismatch"
    p = np.full((3, 3), 1 / 3)
    m = golden._matrix(p)
    assert golden.compare_entry(m, golden._matrix(p.copy())) == "bit-exact"
    assert golden.compare_entry(m, golden._matrix(p * (1 + 1e-14))) == "within 1e-12"
    changed = p.copy()
    changed[0, 1] += 1e-6
    changed[0, 2] -= 1e-6      # row sums and most entries unchanged
    assert golden.compare_entry(m, golden._matrix(changed)) == "mismatch"
    assert golden.compare_entry(m, golden._matrix(p[:2])) == "mismatch"
    rows = {"rows": [{"n": "9", "value": "1.25"}]}
    assert golden.compare_entry(rows, {"rows": [{"n": "9", "value": "1.2500000000000002"}]}) \
        == "within 1e-12"
    assert golden.compare_entry(rows, {"rows": []}) == "mismatch"
    assert golden.check({"a": 1.0}, {}) == {"a": "mismatch"}


def test_reported_metrics_match_benchmark_json():
    import json
    from pathlib import Path

    import run
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer = set(layer_metrics([], wall_s=1.0)) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    assert all(run._layer_unit(m["name"]) == m["unit"] for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
