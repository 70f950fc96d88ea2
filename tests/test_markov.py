import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from age_patrol import (PeriodicityWarning,
                        ReducibleChainError, TransitionMatrix, analyze, assign_weights,
                        build_mh, check_irreducible, fundamental_matrix,
                        return_time_moments, simulate_randomized, slem,
                        stationary_distribution)
from conftest import random_chain, random_connected_graph


def analyze_quiet(P, pi=None):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PeriodicityWarning)
        return analyze(P, pi)


def iid_chain(pi):
    pi = np.asarray(pi, dtype=float)
    return TransitionMatrix(np.tile(pi, (len(pi), 1)))


def test_transition_matrix_rejects_negative_entry():
    with pytest.raises(ValueError, match="nonnegative"):
        TransitionMatrix(np.array([[1.1, -0.1], [0.5, 0.5]]))


def test_transition_matrix_rejects_non_finite_entry():
    # NaN fails both the sign test and the row-sum test, so it needs its own check
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            TransitionMatrix(np.array([[bad, 1.0], [1.0, 0.0]]))


def test_transition_matrix_rejects_bad_row_sum():
    with pytest.raises(ValueError, match="sum to 1"):
        TransitionMatrix(np.array([[0.6, 0.6], [0.5, 0.5]]))


def test_irreducibility_identity_false():
    assert not check_irreducible(TransitionMatrix(np.eye(3)))


def test_irreducibility_two_cycle_true(swap_matrix):
    assert check_irreducible(swap_matrix)


def test_irreducibility_block_diagonal_false():
    p = np.zeros((4, 4))
    p[0, 1] = p[1, 0] = p[2, 3] = p[3, 2] = 1.0
    assert not check_irreducible(TransitionMatrix(p))


def test_irreducibility_needs_both_directions():
    # 0 -> 1 -> 2 reaches every state from 0, but state 2 never returns
    p = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    assert not check_irreducible(TransitionMatrix(p))
    assert check_irreducible(TransitionMatrix(np.roll(np.eye(3), 1, axis=1)))


def test_stationary_two_cycle(swap_matrix):
    assert np.allclose(stationary_distribution(swap_matrix), [0.5, 0.5], atol=1e-12)


def test_stationary_rejects_reducible():
    with pytest.raises(ReducibleChainError):
        stationary_distribution(TransitionMatrix(np.eye(2)))


@pytest.mark.parametrize("scale", [2.0, -1.0, np.nan], ids=["doubled", "negated", "nan"])
def test_analyze_rejects_supplied_pi_that_is_not_a_distribution(k2, scale):
    # every multiple of pi also solves pi P = pi, so stationarity alone passes 2 pi
    design = build_mh(k2.with_weights([1.0, 4.0]))
    analyze(design.matrix, design.target_pi)
    with pytest.raises(ValueError, match="not a positive distribution"):
        analyze(design.matrix, scale * design.target_pi)


def test_stationary_of_mh_chain_hits_sqrt_weight_target(k2):
    # oracle: target pi_i = sqrt(w_i)/sum sqrt(w_j) = (1/3, 2/3) for w=(1,4)
    design = build_mh(k2.with_weights([1.0, 4.0]))
    pi = stationary_distribution(design.matrix)
    assert np.allclose(pi, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)
    assert np.max(np.abs(pi @ design.matrix.p - pi)) < 1e-12


def test_stationary_doubly_stochastic_is_uniform():
    # circulant rows: doubly stochastic and irreducible
    row = np.array([0.2, 0.5, 0.3, 0.0, 0.0])
    p = np.array([np.roll(row, k) for k in range(5)])
    pi = stationary_distribution(TransitionMatrix(p))
    assert np.allclose(pi, np.full(5, 0.2), atol=1e-12)


def test_fundamental_matrix_two_cycle(swap_matrix):
    pi = np.array([0.5, 0.5])
    # oracle: invert [[1.5, -0.5], [-0.5, 1.5]] by the adjugate formula
    m = np.array([[1.5, -0.5], [-0.5, 1.5]])
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    expected = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det
    z = fundamental_matrix(swap_matrix, pi)
    assert np.allclose(z, expected, atol=1e-12)
    assert np.allclose(z, [[0.75, 0.25], [0.25, 0.75]], atol=1e-12)


def test_fundamental_matrix_iid_chain_is_identity():
    pi = np.array([0.1, 0.2, 0.3, 0.4])
    z = fundamental_matrix(iid_chain(pi), pi)
    assert np.allclose(z, np.eye(4), atol=1e-12)


def test_fundamental_matrix_three_cycle_diagonal():
    p = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    pi = np.full(3, 1.0 / 3.0)
    # oracle: straight numpy inversion of I - P + J/3
    expected = np.linalg.inv(np.eye(3) - p + np.full((3, 3), 1.0 / 3.0))
    z = fundamental_matrix(TransitionMatrix(p), pi)
    assert np.allclose(z, expected, atol=1e-12)
    assert np.allclose(np.diag(z), 2.0 / 3.0, atol=1e-12)


def test_fundamental_matrix_rejects_wrong_pi(swap_matrix):
    with pytest.raises(ValueError, match="not stationary"):
        fundamental_matrix(swap_matrix, np.array([0.9, 0.1]))


def test_return_time_moments_two_cycle(swap_matrix):
    analysis = analyze_quiet(swap_matrix)
    mean, second = return_time_moments(analysis, 0)
    assert mean == pytest.approx(2.0, abs=1e-12)
    assert second == pytest.approx(4.0, abs=1e-12)  # deterministic: variance 0


def test_return_time_moments_iid_uniform_matches_geometric():
    pi = np.full(4, 0.25)
    analysis = analyze_quiet(iid_chain(pi))
    mean, second = return_time_moments(analysis, 0)
    # oracle: geometric(p) has E[H] = 1/p and E[H^2] = (2 - p)/p^2
    p = 0.25
    assert mean == pytest.approx(1.0 / p, abs=1e-9)
    assert second == pytest.approx((2.0 - p) / p ** 2, abs=1e-9)
    assert second == pytest.approx(28.0, abs=1e-9)


def test_return_time_moments_match_monte_carlo():
    g = random_connected_graph(6, seed=3)
    P = random_chain(g, seed=4)
    analysis = analyze(P)
    mean, second = return_time_moments(analysis, 0)

    # oracle: measure return times to terminal 0 along a sampled path
    rng = np.random.default_rng(99)
    cums = [np.cumsum(row) for row in P.p]
    cur = 0
    last = 0
    gaps = []
    for t in range(1, 1_000_000):
        cur = int(np.searchsorted(cums[cur], rng.random(), side="right"))
        if cur == 0:
            gaps.append(t - last)
            last = t
    gaps = np.array(gaps, dtype=float)
    assert np.mean(gaps) == pytest.approx(mean, rel=0.02)
    assert np.mean(gaps ** 2) == pytest.approx(second, rel=0.02)


def test_discrepancy_iid_uniform_two_ways():
    pi = np.full(4, 0.25)
    analysis = analyze_quiet(iid_chain(pi))
    # hand formula: Z = I so row sums of |I - Pi| are 2 (1 - pi_i)
    assert analysis.discrepancy == 2.0 * (1.0 - 0.25)


def test_discrepancy_two_cycle(swap_matrix):
    analysis = analyze_quiet(swap_matrix)
    assert analysis.discrepancy == pytest.approx(0.5, abs=1e-12)


def test_discrepancy_dominates_diagonal_slack():
    for seed in range(25):
        g = random_connected_graph(5 + seed % 4, seed=seed)
        analysis = analyze(random_chain(g, seed=seed + 100))
        assert np.all(analysis.z_diag <= analysis.discrepancy + analysis.pi + 1e-15)


def test_slem_iid_chain_is_zero():
    assert slem(iid_chain(np.full(3, 1.0 / 3.0))) == pytest.approx(0.0, abs=1e-8)


def test_slem_two_cycle_warns_periodic(swap_matrix):
    with pytest.warns(PeriodicityWarning):
        value = slem(swap_matrix)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_slem_three_cycle_warns_periodic():
    p = TransitionMatrix(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
    with pytest.warns(PeriodicityWarning):
        slem(p)


def test_rows_of_fundamental_matrix_sum_to_one():
    for seed in range(10):
        g = random_connected_graph(7, seed=seed)
        analysis = analyze(random_chain(g, seed=seed + 50))
        assert np.allclose(analysis.z.sum(axis=1), 1.0, atol=1e-8)


def test_analysis_validate_passes_on_real_chain():
    g = random_connected_graph(6, seed=8)
    analyze(random_chain(g, seed=9)).validate()


def test_analysis_rejects_supplied_nonstationary_pi(swap_matrix):
    with pytest.raises(ValueError):
        analyze_quiet(swap_matrix, pi=np.array([0.8, 0.2]))


def test_empirical_visit_frequency_matches_pi():
    g = random_connected_graph(8, seed=21)
    P = random_chain(g, seed=22)
    analysis = analyze(P)
    stats = simulate_randomized(g, P, 1_000_000, burn_in=10_000, seed=5)
    freq = stats.visit_fraction()
    assert np.all(np.abs(freq - analysis.pi) / analysis.pi < 0.01)


def random_irreducible_chain(kind, n, seed):
    """An MH chain (reversible) or a generic random chain on a random graph."""
    g = random_connected_graph(n, seed)
    if kind == "mh":
        return build_mh(assign_weights(g, "random_interval", lo=1.0, hi=4.0, seed=seed)).matrix
    return random_chain(g, seed + 1)


random_chains = given(kind=st.sampled_from(["mh", "generic"]),
                      n=st.integers(min_value=2, max_value=30),
                      seed=st.integers(min_value=0, max_value=2 ** 32 - 2))


@settings(max_examples=80, deadline=None)
@random_chains
def test_stationary_matches_least_squares_reference(kind, n, seed):
    P = random_irreducible_chain(kind, n, seed)
    # reference: least squares on (P^T - I) stacked with the normalization row
    a = np.vstack([P.p.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[n] = 1.0
    reference, *_ = np.linalg.lstsq(a, b, rcond=None)
    pi = stationary_distribution(P)
    assert np.max(np.abs(pi - reference) / reference) <= 1e-10


@settings(max_examples=80, deadline=None)
@random_chains
def test_slem_matches_general_eigensolver(kind, n, seed):
    P = random_irreducible_chain(kind, n, seed)
    reference = np.sort(np.abs(np.linalg.eigvals(P.p)))[::-1][1]
    assert abs(slem(P, stationary_distribution(P)) - reference) <= 1e-9


@settings(max_examples=80, deadline=None)
@random_chains
def test_fundamental_diagonal_dominates_pi(kind, n, seed):
    analysis = analyze(random_irreducible_chain(kind, n, seed))
    assert np.all(analysis.z_diag >= analysis.pi)


@settings(max_examples=80, deadline=None)
@random_chains
def test_return_time_moments_match_first_step_analysis(kind, n, seed):
    P = random_irreducible_chain(kind, n, seed)
    i = seed % n
    # oracle: Q is P with column i zeroed, so (I - Q) h = 1 gives the hitting
    # times of i, and conditioning on the first step, T = 1 + T', gives the
    # second moments s = (I - Q)^-1 (1 + 2 Q h); the return time is row i
    q = P.p.copy()
    q[:, i] = 0.0
    m = np.eye(n) - q
    h = np.linalg.solve(m, np.ones(n))
    second = np.linalg.solve(m, 1.0 + 2.0 * q @ h)
    mean, moment = return_time_moments(analyze(P), i)
    assert mean == pytest.approx(h[i], rel=1e-9)
    assert moment == pytest.approx(second[i], rel=1e-8)


def test_reversible_chains_take_the_symmetric_eigensolver(monkeypatch):
    calls = {"eigvalsh": 0, "eigvals": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    for seed in range(5):
        g = assign_weights(random_connected_graph(12, seed), "random_interval", seed=seed)
        design = build_mh(g)
        analyze(design.matrix)
        analyze(design.matrix, pi=design.target_pi)
    assert calls == {"eigvalsh": 10, "eigvals": 0}
    for seed in range(5):
        analyze(random_chain(random_connected_graph(12, seed), seed + 1))
    assert calls == {"eigvalsh": 10, "eigvals": 5}
