import numpy as np
import pytest

from age_patrol import (AgeReport, TransitionMatrix, analytic_ages, analyze,
                        average_age_lower_bound, build_mh, peak_optimal_value)
from conftest import random_chain, random_connected_graph


@pytest.fixture
def two_cycle_analysis(swap_matrix):
    return analyze(swap_matrix)


def test_two_cycle_ages(two_cycle_analysis):
    report = analytic_ages(two_cycle_analysis, [1.0, 1.0])
    assert np.allclose(report.per_terminal_peak, [2.0, 2.0])
    assert np.allclose(report.per_terminal_avg, [1.5, 1.5])
    assert report.network_peak == pytest.approx(4.0)
    assert report.network_avg == pytest.approx(3.0)
    # oracle: enumerate the alternating age sequence 1,2,1,2,... directly
    ages = [2 if t % 2 else 1 for t in range(1, 10001)]
    assert np.mean(ages) == pytest.approx(1.5)


def test_iid_chain_on_complete_graph_ages():
    n = 6
    pi = np.full(n, 1.0 / n)
    report = analytic_ages(analyze(TransitionMatrix(np.tile(pi, (n, 1)))), np.ones(n))
    assert report.network_peak == pytest.approx(n * n)
    assert report.network_avg == pytest.approx(n * n)  # Z = I here


def test_three_cycle_rotation_ages():
    p = TransitionMatrix(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
    report = analytic_ages(analyze(p), np.ones(3))
    # oracle: the 3-periodic age sequence per terminal is 1, 2, 3 repeating
    assert np.allclose(report.per_terminal_avg, (1 + 2 + 3) / 3.0)
    assert report.network_avg == pytest.approx(6.0)
    assert report.network_peak == pytest.approx(9.0)


def test_lower_bound_uniform_weights():
    for n in (1, 2, 5, 9):
        assert average_age_lower_bound(np.ones(n)) == pytest.approx(n * (n + 1) / 2.0)


def test_lower_bound_weighted():
    assert average_age_lower_bound([1.0, 4.0]) == pytest.approx(7.0)


def test_lower_bound_rejects_nonpositive():
    with pytest.raises(ValueError):
        average_age_lower_bound([1.0, -1.0])


def test_upper_bound_two_cycle(two_cycle_analysis):
    report = analytic_ages(two_cycle_analysis, [1.0, 1.0])
    assert report.upper_bound_avg == pytest.approx(4.0)  # 0.5 * 4 + 2
    assert report.network_avg <= report.upper_bound_avg


def test_upper_bound_dominates_iid_chain():
    pi = np.array([0.1, 0.2, 0.3, 0.4])
    analysis = analyze(TransitionMatrix(np.tile(pi, (4, 1))))
    w = np.array([1.0, 2.0, 1.5, 1.0])
    report = analytic_ages(analysis, w)
    assert report.network_avg <= report.upper_bound_avg


def test_bounds_bracket_on_random_chains():
    rng = np.random.default_rng(1)
    for seed in range(200):
        n = int(rng.integers(3, 11))
        g = random_connected_graph(n, seed=seed)
        w = rng.uniform(0.5, 3.0, size=n)
        report = analytic_ages(analyze(random_chain(g, seed=seed + 500)), w)
        assert report.lower_bound_avg <= report.network_avg <= report.upper_bound_avg


def test_renewal_inequality_on_random_chains():
    rng = np.random.default_rng(2)
    for seed in range(200):
        n = int(rng.integers(3, 11))
        g = random_connected_graph(n, seed=seed + 40)
        report = analytic_ages(analyze(random_chain(g, seed=seed + 900)), np.ones(n))
        assert np.all(report.per_terminal_avg >= (report.per_terminal_peak + 1.0) / 2.0 - 1e-12)


def test_network_values_are_weighted_sums():
    g = random_connected_graph(5, seed=77)
    w = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    report = analytic_ages(analyze(random_chain(g, seed=78)), w)
    assert report.network_peak == pytest.approx(float(np.sum(w * report.per_terminal_peak)))
    assert report.network_avg == pytest.approx(float(np.sum(w * report.per_terminal_avg)))


def test_peak_identity_for_mh_design():
    rng = np.random.default_rng(3)
    g = random_connected_graph(12, seed=5).with_weights(rng.uniform(1.0, 2.0, size=12))
    design = build_mh(g)
    report = analytic_ages(analyze(design.matrix, pi=design.target_pi), g.weights)
    assert report.network_peak == pytest.approx(report.peak_opt_value, abs=1e-9)
    assert report.network_peak == pytest.approx(report.peak_opt_value, rel=1e-12)


def test_hamiltonian_cycles_meet_the_average_lower_bound(two_cycle_analysis):
    report = analytic_ages(two_cycle_analysis, [1.0, 1.0])
    assert report.network_avg == pytest.approx(report.lower_bound_avg)
    rotation = TransitionMatrix(np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float))
    report3 = analytic_ages(analyze(rotation), np.ones(3))
    assert report3.network_avg == pytest.approx(report3.lower_bound_avg)


def test_age_report_json_round_trip(two_cycle_analysis):
    report = analytic_ages(two_cycle_analysis, [1.0, 2.0])
    clone = AgeReport.from_json(report.to_json())
    assert clone.network_avg == report.network_avg
    assert np.allclose(clone.per_terminal_peak, report.per_terminal_peak)


def test_degenerate_single_terminal_bound():
    assert average_age_lower_bound([1.0]) == pytest.approx(1.0)
    assert peak_optimal_value([1.0]) == pytest.approx(1.0)
