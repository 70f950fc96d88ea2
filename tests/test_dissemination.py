import json
import math
import warnings

import numpy as np
import pytest

from age_patrol import (DesignResult, DiscreteLaw, DisseminationPolicy, PeriodicityWarning,
                        QueueBacklogWarning, QueueModelParams, StabilityError,
                        TransitionMatrix, analyze, analytic_ages, berg1_vacation_peak_age,
                        berg1_vacation_system_time, build_fastest_mixing, dissemination,
                        dissemination_report, generate_random_geometric, optimal_utilization,
                        policy_from_design, separation_policy, simulate_berg1_vacation,
                        simulate_dissemination, terminal_age_upper_bound)
from conftest import make_complete


def swap_design():
    return DesignResult(
        matrix=TransitionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
        target_pi=np.array([0.5, 0.5]),
        objective=1.0, iterations=0, converged=True)


def quiet_policy(design, rates=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PeriodicityWarning)
        return policy_from_design(design, rates=rates)


D2 = DiscreteLaw.deterministic(2)


def test_vacation_peak_worked_example():
    params = QueueModelParams.from_laws(0.25, D2, D2)
    assert berg1_vacation_peak_age(params) == pytest.approx(7.0, abs=1e-12)
    assert berg1_vacation_system_time(params) == pytest.approx(3.0, abs=1e-12)


def test_vacation_peak_small_rate_floor():
    lam = 1e-3
    params = QueueModelParams.from_laws(lam, DiscreteLaw.deterministic(1),
                                        DiscreteLaw.deterministic(1))
    assert berg1_vacation_peak_age(params) == pytest.approx(1.0 / lam + 1.0, rel=1e-9)


def test_queue_params_reject_instability():
    with pytest.raises(StabilityError):
        QueueModelParams.from_laws(0.5, D2, D2)  # rho = 1


def test_queue_params_reject_bad_moments():
    with pytest.raises(ValueError):
        QueueModelParams(0.2, 2.0, 1.0, 2.0, 4.0)  # E[S^2] < E[S]^2


def test_discrete_law_moments():
    law = DiscreteLaw.uniform([1, 2, 3])
    assert law.mean() == pytest.approx(2.0)
    assert law.second_moment() == pytest.approx(14.0 / 3.0)


def test_vacation_simulator_matches_formula_worked_example():
    sim = simulate_berg1_vacation(0.25, D2, D2, 1_000_000, seed=1)
    assert sim.empirical_peak == pytest.approx(7.0, rel=0.02)
    assert sim.empirical_avg <= sim.empirical_peak * 1.02


def test_vacation_simulator_matches_formula_mixed_laws():
    service = DiscreteLaw.uniform([1, 2, 3])
    vacation = DiscreteLaw((1, 4), (0.75, 0.25))
    params = QueueModelParams.from_laws(0.3, service, vacation)
    sim = simulate_berg1_vacation(0.3, service, vacation, 500_000, seed=5)
    assert sim.empirical_peak == pytest.approx(berg1_vacation_peak_age(params), rel=0.02)


def test_terminal_bound_two_cycle(swap_matrix):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PeriodicityWarning)
        analysis = analyze(swap_matrix)
    assert terminal_age_upper_bound(analysis, 0, 2.0 / 3.0) == pytest.approx(6.5, abs=1e-12)
    # the optimum utilization reproduces the closed-form minimum
    rho_star = optimal_utilization(0.75, 0.5)
    assert rho_star == pytest.approx(2.0 / 3.0, abs=1e-15)
    z, pi = 0.75, 0.5
    closed_form = (z - pi + 2.0 * math.sqrt(z - pi) + 2.0) / pi
    assert terminal_age_upper_bound(analysis, 0, rho_star) == pytest.approx(closed_form)


def test_terminal_bound_diverges_at_small_rho(swap_matrix):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PeriodicityWarning)
        analysis = analyze(swap_matrix)
    assert terminal_age_upper_bound(analysis, 0, 1e-9) > 1e8
    with pytest.raises(ValueError):
        terminal_age_upper_bound(analysis, 0, 0.0)
    with pytest.raises(ValueError):
        terminal_age_upper_bound(analysis, 0, 1.0)


def test_separation_rates_on_swap_k2(k2):
    policy = quiet_policy(swap_design())
    assert np.allclose(policy.rates, 1.0 / 3.0, atol=1e-12)
    assert np.allclose(policy.upper_bounds, 6.5, atol=1e-12)


def test_separation_rates_iid_chain_complete_graph():
    n = 5
    g = make_complete(n)
    pi = np.full(n, 1.0 / n)
    design = DesignResult(matrix=TransitionMatrix(np.tile(pi, (n, 1))), target_pi=pi,
                          objective=0.0, iterations=0, converged=True)
    policy = quiet_policy(design)
    expected = (1.0 / n) / (1.0 + math.sqrt(1.0 - 1.0 / n))
    assert np.allclose(policy.rates, expected, atol=1e-12)


def test_separation_policy_rates_below_pi():
    g = generate_random_geometric(15, 0.55, seed=2)
    policy = separation_policy(g)
    assert np.all(policy.rates > 0)
    assert np.all(policy.rates < policy.target_pi)
    policy.validate()


def test_policy_json_round_trip():
    policy = quiet_policy(swap_design())
    clone = DisseminationPolicy.from_json(json.loads(json.dumps(policy.to_json())))
    assert np.allclose(clone.rates, policy.rates)
    assert np.allclose(clone.upper_bounds, policy.upper_bounds)
    assert clone.discrepancy == policy.discrepancy


def test_dissemination_zero_rates_ages_grow(k2, swap_matrix):
    policy = DisseminationPolicy(
        matrix=swap_matrix, target_pi=np.array([0.5, 0.5]), rates=np.zeros(2),
        rho=np.zeros(2), upper_bounds=np.full(2, np.inf), z_diag=np.array([0.75, 0.75]),
        discrepancy=0.5)
    horizon = 10_000
    stats = simulate_dissemination(k2, policy, horizon, burn_in=0, seed=0)
    assert np.all(stats.n_peaks == 0)
    # ages ramp 1..T: mean is (T+1)/2 per terminal
    assert np.allclose(stats.per_terminal_avg, (horizon + 1) / 2.0)


def test_dissemination_peaks_within_bound_k2(k2):
    policy = quiet_policy(swap_design())
    stats = simulate_dissemination(k2, policy, 1_000_000, burn_in=10_000, seed=3)
    assert np.all(stats.per_terminal_peak <= policy.upper_bounds * 1.02)
    assert np.all(stats.per_terminal_avg <= stats.per_terminal_peak * 1.02)


def test_dissemination_suboptimal_rates_still_bounded(k2):
    base = quiet_policy(swap_design())
    policy = quiet_policy(swap_design(), rates=base.rates / 2.0)
    stats = simulate_dissemination(k2, policy, 400_000, burn_in=8_000, seed=4)
    assert np.all(stats.per_terminal_peak <= policy.upper_bounds * 1.02)


def test_dissemination_fcfs_event_order(k2):
    policy = quiet_policy(swap_design())
    stats, events = simulate_dissemination(k2, policy, 4000, burn_in=0, seed=6,
                                           record_events=True)
    last_gen = {}
    arrivals = {}
    for t, kind, terminal, gen in events:
        if kind == "arrive":
            arrivals.setdefault(terminal, []).append(gen)
        elif kind == "deliver":
            assert gen >= last_gen.get(terminal, 0), "FCFS violated"
            last_gen[terminal] = gen
            assert gen in arrivals.get(terminal, []), "delivered a packet never generated"
    deliveries = sum(1 for e in events if e[1] == "deliver")
    assert deliveries == int(stats.n_peaks.sum())


def test_dissemination_deterministic_under_seed(k2):
    policy = quiet_policy(swap_design())
    a = simulate_dissemination(k2, policy, 50_000, seed=11)
    b = simulate_dissemination(k2, policy, 50_000, seed=11)
    assert np.array_equal(a.per_terminal_avg, b.per_terminal_avg)
    assert np.array_equal(a.per_terminal_peak, b.per_terminal_peak)


def test_dissemination_backlog_warning(k2, swap_matrix, monkeypatch):
    # rates just below the visit rate plus a tiny warning threshold
    monkeypatch.setattr(dissemination, "QUEUE_WARNING_THRESHOLD", 40)
    policy = DisseminationPolicy(
        matrix=swap_matrix, target_pi=np.array([0.5, 0.5]),
        rates=np.array([0.499, 0.499]), rho=np.array([0.998, 0.998]),
        upper_bounds=np.full(2, np.inf), z_diag=np.array([0.75, 0.75]), discrepancy=0.5)
    with pytest.warns(QueueBacklogWarning):
        simulate_dissemination(k2, policy, 200_000, seed=1)


def test_dissemination_never_beats_gathering():
    for seed in (0, 1):
        g = generate_random_geometric(12, 0.55, seed=seed)
        design = build_fastest_mixing(g)
        policy = separation_policy(g, design=design)
        diss = simulate_dissemination(g, policy, 300_000, burn_in=6_000, seed=seed + 50)
        gather = analytic_ages(analyze(design.matrix, pi=design.target_pi), g.weights)
        assert diss.network_avg >= gather.network_avg


def test_dissemination_stats_match_event_log_replay():
    # independent reference: rebuild the full age process from the event log
    # alone and recompute windowed averages and delivery-slot peaks
    g = generate_random_geometric(6, 0.7, seed=9)
    policy = separation_policy(g)
    horizon, burn_in = 20_000, 473
    stats, events = simulate_dissemination(g, policy, horizon, burn_in=burn_in, seed=10,
                                           record_events=True)
    n = g.n
    ages = np.zeros((horizon + 2, n), dtype=np.int64)
    ages[1] = 1
    deliveries = {}
    for t, kind, terminal, gen in events:
        if kind == "deliver":
            deliveries.setdefault(t, []).append((terminal, gen))
    for t in range(1, horizon + 1):
        ages[t + 1] = ages[t] + 1
        for terminal, gen in deliveries.get(t, []):
            ages[t + 1, terminal] = t - gen + 1
    window = ages[burn_in + 1:horizon + 1]
    assert np.allclose(stats.per_terminal_avg, window.mean(axis=0), atol=1e-12)
    peak_lists = [[] for _ in range(n)]
    for t, pairs in deliveries.items():
        for terminal, _ in pairs:
            if t > burn_in:
                peak_lists[terminal].append(ages[t, terminal])
    for i in range(n):
        assert stats.n_peaks[i] == len(peak_lists[i])
        if peak_lists[i]:
            assert stats.per_terminal_peak[i] == pytest.approx(np.mean(peak_lists[i]))


def test_dissemination_report_round_trip_and_checks(k2):
    policy = quiet_policy(swap_design())
    stats = simulate_dissemination(k2, policy, 400_000, burn_in=8_000, seed=7)
    report = dissemination_report(policy, stats, k2.weights)
    assert report["hard_checks"]["peak_bounds_pass"]
    assert report["hard_checks"]["avg_within_peak_pass"]
    clone = json.loads(json.dumps(report))
    assert clone == report
    assert report["mixing_proxy"]["h_proxy"] == pytest.approx(policy.discrepancy / 4.0)
