"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
per-criterion timing.  Budgeted criteria assert their wall-clock limits.
"""

import csv
import functools
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from age_patrol import (DesignResult, DiscreteLaw, QueueModelParams, TransitionMatrix,
                        analytic_ages, analyze, average_age_lower_bound,
                        berg1_vacation_peak_age, build_fastest_mixing, build_mh, generate_grid_diag,
                        generate_random_geometric, generate_ring_k, assign_weights,
                        policy_from_design, separation_policy,
                        simulate_age_based, simulate_berg1_vacation, simulate_dissemination,
                        simulate_randomized, validate_design)
from age_patrol.cli import main as cli_main
from conftest import (brute_force_optimal_periodic, make_complete, make_fig_tree, make_path,
                      random_chain, random_connected_graph)


def criterion(num, name):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num} ({name}): FAIL [{time.time() - start:.1f}s]")
                raise
            print(f"\nACCEPTANCE {num} ({name}): PASS [{time.time() - start:.1f}s]")
        return inner
    return wrap


@criterion(1, "analytic ages match million-slot simulations")
def test_criterion_1_analytic_vs_simulated():
    start = time.time()
    rng = np.random.default_rng(2024)
    for case in range(20):
        n = int(rng.integers(3, 11))
        g = random_connected_graph(n, seed=case)
        chain = random_chain(g, seed=1000 + case, hold=True)
        report = analytic_ages(analyze(chain), g.weights)
        stats = simulate_randomized(g, chain, 1_000_000, burn_in=10_000, seed=case)
        assert abs(stats.network_peak / report.network_peak - 1.0) <= 0.02, f"case {case}"
        assert abs(stats.network_avg / report.network_avg - 1.0) <= 0.02, f"case {case}"
    elapsed = time.time() - start
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds the 2 minute budget"


@criterion(2, "designed trajectories achieve the optimal peak age identity")
def test_criterion_2_peak_identity():
    instances = [
        generate_random_geometric(100, 2.0 / math.sqrt(100), seed=5),
        generate_grid_diag(9),
        generate_ring_k(21, 3),
    ]
    for idx, g in enumerate(instances):
        g = assign_weights(g, "random_interval", lo=1.0, hi=2.0, seed=50 + idx)
        for design in (build_mh(g), build_fastest_mixing(g)):
            assert validate_design(design.matrix, g, design.target_pi)["all_pass"]
            report = analytic_ages(analyze(design.matrix, pi=design.target_pi), g.weights)
            identity = math.sqrt(np.sqrt(g.weights).sum() ** 2)  # guard against typos
            assert report.network_peak == pytest.approx(report.peak_opt_value, abs=1e-9)
            assert report.peak_opt_value == pytest.approx(identity ** 2, abs=1e-9)


@criterion(3, "Hamiltonian instances reach the average-age floor exactly")
def test_criterion_3_hamiltonian_brute_force():
    for n in range(3, 9):
        floor = n * (n + 1) / 2.0
        for g in (make_complete(n), generate_ring_k(n, 1)):
            _, avg, _ = brute_force_optimal_periodic(g, max_period=n)
            assert avg == floor
            assert avg == average_age_lower_bound(g.weights)
    path = make_path(3)
    _, avg, _ = brute_force_optimal_periodic(path, max_period=4)
    assert avg == 6.5
    assert avg > average_age_lower_bound(path.weights) == 6.0


@criterion(4, "discrepancy upper bound dominates the analytic average age")
def test_criterion_4_discrepancy_bound():
    rng = np.random.default_rng(4)
    for case in range(200):
        n = int(rng.integers(2, 11))
        g = random_connected_graph(n, seed=5000 + case)
        weights = rng.uniform(0.5, 3.0, size=n)
        report = analytic_ages(analyze(random_chain(g, seed=6000 + case)), weights)
        # algebraic inequality: no tolerance allowed
        assert report.network_avg <= report.upper_bound_avg, f"case {case}"


@criterion(5, "age-based walker is within the factor-2 guarantee")
def test_criterion_5_age_based_factor():
    instances = [
        generate_random_geometric(10, 2.0 / math.sqrt(10), seed=2),
        generate_random_geometric(25, 2.0 / math.sqrt(25), seed=3),
        generate_grid_diag(3),
        generate_grid_diag(4),
        generate_grid_diag(5),
        generate_ring_k(15, 3),
        generate_ring_k(25, 3),
    ]
    for g in instances:
        n = g.n
        stats = simulate_age_based(g, horizon=50_000, start=0)
        bound = (2.0 * n + 1.0) / (n + 1.0)
        ratio = stats.network_avg / average_age_lower_bound(g.weights)
        assert ratio <= bound, f"n={n}: ratio {ratio:.3f} > {bound:.3f}"

    tree = make_fig_tree()
    _, trace = simulate_age_based(tree, horizon=13, burn_in=0, start=0, record_trace=True)
    assert trace.visit_log.tolist() == [0, 1, 3, 1, 4, 1, 0, 2, 5, 2, 6, 2, 0]


@criterion(6, "vacation-queue peak age formula matches simulation")
def test_criterion_6_vacation_queue():
    worked = QueueModelParams.from_laws(0.25, DiscreteLaw.deterministic(2),
                                        DiscreteLaw.deterministic(2))
    assert berg1_vacation_peak_age(worked) == pytest.approx(7.0, abs=1e-12)

    vacation = DiscreteLaw.deterministic(2)
    service_laws = [
        DiscreteLaw.deterministic(2),
        DiscreteLaw.uniform([1, 2, 3]),
        DiscreteLaw((1, 4), (0.75, 0.25)),
    ]
    seed = 0
    for lam in (0.1, 0.25, 0.4):
        for service in service_laws:
            params = QueueModelParams.from_laws(lam, service, vacation)
            predicted = berg1_vacation_peak_age(params)
            sim = simulate_berg1_vacation(lam, service, vacation, 1_000_000,
                                          burn_in=10_000, seed=seed)
            seed += 1
            assert sim.empirical_peak == pytest.approx(predicted, rel=0.02), \
                f"lam={lam}, service={service.values}"
            assert sim.empirical_avg <= sim.empirical_peak * 1.02


@criterion(7, "dissemination peaks stay within their analytic bounds")
def test_criterion_7_separation_policy_bounds():
    # two-terminal mobility: the alternating trajectory, bound 6.5 per terminal
    k2 = make_complete(2)
    swap = DesignResult(matrix=TransitionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
                        target_pi=np.array([0.5, 0.5]),
                        objective=1.0, iterations=0, converged=True)
    policy_k2 = policy_from_design(swap)
    assert np.allclose(policy_k2.upper_bounds, 6.5, atol=1e-12)
    for seed in range(20):
        stats = simulate_dissemination(k2, policy_k2, 1_000_000, burn_in=10_000, seed=seed)
        assert np.all(stats.per_terminal_peak <= policy_k2.upper_bounds * 1.02), f"seed {seed}"

    g = generate_random_geometric(20, 2.0 / math.sqrt(20), seed=11)
    g = assign_weights(g, "random_interval", lo=1.0, hi=2.0, seed=12)
    policy = separation_policy(g)
    for seed in range(20):
        stats = simulate_dissemination(g, policy, 1_000_000, burn_in=10_000, seed=100 + seed)
        assert np.all(stats.per_terminal_peak <= policy.upper_bounds * 1.02), f"seed {seed}"


def _read_sweep(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    table = {}
    for row in rows:
        table.setdefault(int(row["n"]), {})[row["policy"]] = float(row["value"])
    return table


@criterion(8, "figure sweeps reproduce the qualitative curves")
def test_criterion_8_figure_sweeps(tmp_path):
    start = time.time()
    runner = CliRunner()
    out_dir = tmp_path / "figures"
    result = runner.invoke(cli_main, ["reproduce", "--figure", "all",
                                      "--out-dir", str(out_dir)], catch_exceptions=False)
    assert result.exit_code == 0, result.output

    fig4 = _read_sweep(out_dir / "fig4.csv")
    assert sorted(fig4) == [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
    for n, vals in fig4.items():
        peaks = [vals["mh"], vals["fastest_mixing"], vals["age_based"]]
        assert max(peaks) / min(peaks) <= 1.03, f"fig4 n={n}: {peaks}"

    for fig in ("fig5", "fig6", "fig7"):
        table = _read_sweep(out_dir / f"{fig}.csv")
        for n, vals in table.items():
            assert vals["age_based"] <= vals["fastest_mixing"] * 1.03, f"{fig} n={n}"
            assert vals["fastest_mixing"] <= vals["mh"] * 1.03, f"{fig} n={n}"
            for policy in ("age_based", "fastest_mixing", "mh"):
                assert vals[policy] >= vals["lower_bound"] * (1.0 - 1e-9), \
                    f"{fig} n={n} {policy} below the floor"

    # slower mixing on the ring shows up as a larger optimality gap at matched sizes
    fig6 = _read_sweep(out_dir / "fig6.csv")
    fig7 = _read_sweep(out_dir / "fig7.csv")
    matched = sorted(set(fig6) & set(fig7))
    assert matched, "no matched sizes between the grid and ring sweeps"
    for n in matched:
        ring_ratio = fig7[n]["fastest_mixing"] / fig7[n]["lower_bound"]
        grid_ratio = fig6[n]["fastest_mixing"] / fig6[n]["lower_bound"]
        assert ring_ratio >= grid_ratio, f"n={n}: ring {ring_ratio} < grid {grid_ratio}"

    fig8 = _read_sweep(out_dir / "fig8.csv")
    for n, vals in fig8.items():
        assert vals["separation"] >= vals["fastest_mixing"], f"fig8 n={n}"

    elapsed = time.time() - start
    assert elapsed < 900.0, f"runtime {elapsed:.1f}s exceeds the 15 minute budget"


@criterion(9, "spectral solver reaches its certified optima")
def test_criterion_9_solver_sanity():
    designs = []
    for n in (2, 3, 5, 8):
        design = build_fastest_mixing(make_complete(n))
        designs.append(design)
        assert design.objective <= 1e-6, f"K{n} objective {design.objective}"

    ring = generate_ring_k(8, 1)
    design = build_fastest_mixing(ring)
    designs.append(design)
    # circulant oracle: eigenvalues 1 - 2 c (1 - cos(2 pi k / 8)) over a fine grid
    c = np.linspace(0.0, 0.5, 500_001)
    theta = 2.0 * np.pi * np.arange(1, 8) / 8.0
    oracle = np.abs(1.0 - 2.0 * c[:, None] * (1.0 - np.cos(theta)[None, :])).max(axis=1).min()
    assert abs(design.objective - oracle) <= 1e-4

    for design in designs:
        assert max(design.residuals.values()) <= 1e-7
