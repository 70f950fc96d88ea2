import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from age_patrol import (TransitionMatrix, analytic_ages, analyze,
                        average_age_lower_bound, brute_force_optimal_periodic, build_mh,
                        generate_grid_diag, generate_random_geometric, generate_ring_k,
                        periodic_exact_ages, simulate_age_based, simulate_periodic,
                        simulate_randomized)
from age_patrol.simulation import _Recorder
from conftest import (make_complete, make_fig_tree, make_path, random_chain,
                      random_connected_graph)


def test_two_cycle_simulation_is_exact(k2, swap_matrix):
    stats = simulate_randomized(k2, swap_matrix, 10_000, burn_in=100, seed=0)
    assert stats.network_avg == 3.0
    assert stats.network_peak == 4.0


def test_randomized_matches_analytic_on_mh_triangle(triangle):
    design = build_mh(triangle)
    stats = simulate_randomized(triangle, design.matrix, 1_000_000, burn_in=10_000, seed=42)
    report = analytic_ages(analyze(design.matrix, pi=design.target_pi), triangle.weights)
    assert stats.network_peak == pytest.approx(report.network_peak, rel=0.02)
    assert stats.network_avg == pytest.approx(report.network_avg, rel=0.02)


def test_randomized_rejects_bad_window(k2, swap_matrix):
    with pytest.raises(ValueError):
        simulate_randomized(k2, swap_matrix, 100, burn_in=100)


def test_randomized_rejects_off_support_matrix():
    g = make_path(3)
    bad = TransitionMatrix(np.full((3, 3), 1.0 / 3.0))  # uses the missing chord
    with pytest.raises(ValueError, match="non-edge"):
        simulate_randomized(g, bad, 1000)


def test_randomized_is_reproducible(triangle):
    design = build_mh(triangle)
    a = simulate_randomized(triangle, design.matrix, 20_000, seed=9)
    b = simulate_randomized(triangle, design.matrix, 20_000, seed=9)
    assert np.array_equal(a.per_terminal_avg, b.per_terminal_avg)
    assert np.array_equal(a.per_terminal_peak, b.per_terminal_peak)


def test_trace_invariants(triangle):
    design = build_mh(triangle)
    stats, trace = simulate_randomized(triangle, design.matrix, 3000, burn_in=0, seed=3,
                                       record_trace=True)
    ages = trace.ages
    # every step is +1 or a reset to 1
    diffs = ages[1:] - ages[:-1]
    assert np.all((diffs == 1) | (ages[1:] == 1))
    # the walk respects the graph (or holds in place)
    for t in range(len(trace.visit_log) - 1):
        a, b = int(trace.visit_log[t]), int(trace.visit_log[t + 1])
        assert a == b or triangle.has_edge(a, b)
    # trace ages at visit slots equal recorded peaks, and peaks are the gaps
    for i in range(3):
        slots = np.flatnonzero(trace.visit_log == i) + 1
        assert np.array_equal(ages[slots - 1, i], np.array(trace.peaks[i]))
        gaps = np.diff(np.concatenate([[0], slots]))
        assert np.array_equal(gaps, np.array(trace.peaks[i]))


def test_peak_mean_equals_visit_gap_mean(triangle):
    design = build_mh(triangle)
    stats, trace = simulate_randomized(triangle, design.matrix, 50_000, burn_in=0, seed=8,
                                       record_trace=True)
    for i in range(3):
        assert stats.per_terminal_peak[i] == pytest.approx(np.mean(trace.peaks[i]))


def test_age_based_tree_walk_is_depth_first():
    tree = make_fig_tree()
    _, trace = simulate_age_based(tree, horizon=13, burn_in=0, start=0, record_trace=True)
    assert trace.visit_log.tolist() == [0, 1, 3, 1, 4, 1, 0, 2, 5, 2, 6, 2, 0]


def test_age_based_invariant_under_monotone_transform():
    g = generate_grid_diag(4)
    _, t_quad = simulate_age_based(g, "quadratic_plus_linear", horizon=4000, burn_in=0,
                                     record_trace=True)
    _, t_id = simulate_age_based(g, "identity", horizon=4000, burn_in=0, record_trace=True)
    assert np.array_equal(t_quad.visit_log, t_id.visit_log)


def test_age_based_covers_every_window():
    cases = [generate_grid_diag(3), generate_ring_k(9, 2),
             generate_random_geometric(12, 0.5, seed=4), make_fig_tree(), make_path(5)]
    for g in cases:
        _, trace = simulate_age_based(g, horizon=min(60 * g.n, 5000), burn_in=0,
                                      record_trace=True)
        n = g.n
        log = trace.visit_log
        for lo in range(4 * n, len(log) - 2 * n, n):
            window = set(log[lo:lo + 2 * n].tolist())
            assert window == set(range(n)), f"window at {lo} missed terminals on n={n}"


def test_age_based_path_cycles_optimally():
    g = make_path(3)
    _, trace = simulate_age_based(g, horizon=40, burn_in=0, start=0, record_trace=True)
    assert trace.visit_log[:8].tolist() == [0, 1, 2, 1, 0, 1, 2, 1]


def test_periodic_k2(k2):
    stats = simulate_periodic(k2, [0, 1], 10_000)
    assert stats.network_avg == 3.0
    assert stats.network_peak == 4.0
    stats2 = simulate_periodic(k2, [0, 1, 0, 1], 10_000)
    assert stats2.network_avg == 3.0
    assert stats2.network_peak == 4.0


def test_periodic_exact_ages_path_walk():
    ages = periodic_exact_ages([0, 1, 2, 1], np.ones(3))
    assert ages.per_terminal_avg.tolist() == [2.5, 1.5, 2.5]
    assert ages.network_avg == pytest.approx(6.5)
    assert ages.per_terminal_peak.tolist() == [4.0, 2.0, 4.0]


def test_periodic_simulation_matches_exact_formula():
    g = make_path(3)
    seq = [0, 1, 2, 1]
    stats = simulate_periodic(g, seq, 8000)
    exact = periodic_exact_ages(seq, g.weights)
    assert stats.network_avg == pytest.approx(exact.network_avg, abs=1e-12)
    assert stats.network_peak == pytest.approx(exact.network_peak, abs=1e-12)


def test_periodic_rejects_non_edge():
    g = make_path(3)
    with pytest.raises(ValueError, match="non-edge"):
        simulate_periodic(g, [0, 1, 2], 300)  # wrap 2 -> 0 missing


def test_periodic_rejects_uncovered_terminal(triangle):
    with pytest.raises(ValueError, match="never visited"):
        simulate_periodic(triangle, [0, 1], 300)


def test_periodic_requires_multiple_of_period(k2):
    with pytest.raises(ValueError, match="multiple"):
        simulate_periodic(k2, [0, 1], 1001)


def test_periodic_rejects_negative_burn_in():
    g = generate_ring_k(5, 1)
    with pytest.raises(ValueError, match="burn_in"):
        simulate_periodic(g, [0, 1, 2, 3, 4], 100, burn_in=-1)


def test_brute_force_triangle(triangle):
    seq, avg, peak = brute_force_optimal_periodic(triangle, 6)
    assert avg == pytest.approx(6.0)
    assert avg == pytest.approx(average_age_lower_bound(triangle.weights))
    assert sorted(seq) == [0, 1, 2]


def test_brute_force_path_three():
    g = make_path(3)
    seq, avg, peak = brute_force_optimal_periodic(g, 4)
    assert avg == pytest.approx(6.5)
    assert avg > average_age_lower_bound(g.weights)
    assert len(seq) == 4


def test_brute_force_k2(k2):
    seq, avg, peak = brute_force_optimal_periodic(k2, 2)
    assert seq == [0, 1]
    assert avg == pytest.approx(3.0)
    assert peak == pytest.approx(4.0)


def test_brute_force_reports_impossible():
    g = make_path(3)
    with pytest.raises(ValueError, match="no covering closed walk"):
        brute_force_optimal_periodic(g, 3)  # path needs 2(n-1) = 4


def test_brute_force_guard_rails():
    g = make_path(3)
    with pytest.raises(ValueError):
        brute_force_optimal_periodic(g, 17)
    big = generate_ring_k(9, 1)
    with pytest.raises(ValueError):
        brute_force_optimal_periodic(big, 9)


def test_brute_force_weighted_prefers_heavy_terminal():
    # two terminals, weight 9 vs 1: visiting both each period is forced on K2,
    # but on a triangle the heavy terminal gets visited more often
    g = make_complete(3, weights=np.array([9.0, 1.0, 1.0]))
    seq, avg, peak = brute_force_optimal_periodic(g, 4)
    # oracle: enumerate the two plausible candidates by hand
    short = periodic_exact_ages([0, 1, 2], g.weights).network_avg
    heavy = periodic_exact_ages([0, 1, 0, 2], g.weights).network_avg
    assert avg == pytest.approx(min(short, heavy))
    assert avg == pytest.approx(heavy)  # 0,1,0,2 favours the heavy terminal


def test_windowed_stats_match_per_slot_reference():
    # differential check of the ramp-sum bookkeeping against a naive
    # per-slot average over the same trace, with burn-in clipping active
    g = random_connected_graph(6, seed=14)
    chain = random_chain(g, seed=15)
    horizon, burn_in = 9000, 317
    stats, trace = simulate_randomized(g, chain, horizon, burn_in=burn_in, seed=16,
                                       record_trace=True)
    window = trace.ages[burn_in:horizon]
    assert np.allclose(stats.per_terminal_avg, window.mean(axis=0), atol=1e-12)
    for i in range(g.n):
        slots = np.flatnonzero(trace.visit_log == i) + 1
        peaks = trace.ages[slots - 1, i][slots > burn_in]
        assert stats.per_terminal_peak[i] == pytest.approx(peaks.mean())
        assert stats.n_peaks[i] == len(peaks)


def test_stats_to_json(k2, swap_matrix):
    stats = simulate_randomized(k2, swap_matrix, 2000, seed=0)
    payload = stats.to_json()
    assert payload["horizon"] == 2000
    assert len(payload["per_terminal_avg"]) == 2


@st.composite
def delivery_runs(draw):
    """(n, horizon, burn_in, deliveries) with deliveries sorted by slot.

    Each delivery is (t, i, generated) with generated <= t and at most one
    delivery per terminal and slot; gathering runs use generated == t.
    """
    n = draw(st.integers(1, 4))
    horizon = draw(st.integers(1, 30))
    burn_in = draw(st.integers(0, horizon - 1))
    pairs = draw(st.lists(st.tuples(st.integers(1, horizon), st.integers(0, n - 1)),
                          unique=True, max_size=3 * horizon))
    gathering = draw(st.booleans())
    deliveries = [(t, i, t if gathering else draw(st.integers(1, t)))
                  for t, i in sorted(pairs)]
    return n, horizon, burn_in, deliveries


@settings(max_examples=300, deadline=None)
@given(delivery_runs())
@example((2, 6, 0, [(1, 0, 1), (3, 0, 2), (6, 0, 4)]))        # burn-in 0; terminal 1 never
@example((3, 8, 3, [(3, 1, 3), (5, 1, 4), (8, 0, 2), (8, 1, 8)]))  # slots burn_in and horizon
@example((1, 5, 4, [(2, 0, 1), (4, 0, 4)]))                   # no delivery inside the window
def test_recorder_matches_per_slot_ages(run):
    # naive reference: the age in slot s is s minus the generation slot of the
    # last update delivered strictly before s (0 before the first delivery)
    n, horizon, burn_in, deliveries = run
    rec = _Recorder(n, horizon, burn_in)
    for t, i, generated in deliveries:
        rec.deliver(i, t, generated)
    weights = np.arange(1.0, n + 1.0)
    stats = rec.finish(weights)

    ages = np.empty((horizon + 1, n), dtype=np.int64)
    base = [0] * n
    pending = list(deliveries)
    for s in range(1, horizon + 1):
        ages[s] = [s - b for b in base]
        while pending and pending[0][0] == s:
            _, i, generated = pending.pop(0)
            base[i] = generated
    window = ages[burn_in + 1:]
    peaks = [[ages[t, i] for t, j, _ in deliveries if j == i and t > burn_in]
             for i in range(n)]
    expected_peak = np.array([np.mean(p) if p else np.nan for p in peaks])

    np.testing.assert_array_equal(stats.per_terminal_avg, window.mean(axis=0))
    np.testing.assert_array_equal(stats.per_terminal_peak, expected_peak)
    np.testing.assert_array_equal(stats.n_peaks, [len(p) for p in peaks])
    assert stats.network_avg == pytest.approx(float(np.sum(weights * window.mean(axis=0))))
    if any(not p for p in peaks):
        assert np.isnan(stats.network_peak)
    else:
        assert stats.network_peak == pytest.approx(float(np.sum(weights * expected_peak)))
    assert (stats.horizon, stats.burn_in) == (horizon, burn_in)
