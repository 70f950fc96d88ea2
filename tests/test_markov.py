import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from age_patrol import (NumericalError, PeriodicityWarning,
                        ReducibleChainError, TransitionMatrix, analyze, assign_weights,
                        build_mh, check_irreducible, fundamental_matrix, generate_grid_diag,
                        generate_random_geometric, generate_ring_k, simulate_randomized,
                        slem, stationary_distribution)
from age_patrol import markov
from age_patrol.markov import _fundamental_residual, _fundamental_system
from conftest import (list_bfs_tree, list_strongly_connected, random_chain,
                      random_connected_graph, return_time_moments)


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


def test_transition_matrix_adopts_only_a_read_only_array_that_owns_its_data():
    p = np.full((3, 3), 1 / 3)
    assert TransitionMatrix(p).p is not p and p.flags.writeable
    p.flags.writeable = False
    assert TransitionMatrix(p).p is p
    # a read-only view shares a writable base, and a transposed array is not C-contiguous
    base = np.full((2, 3, 3), 1 / 3)
    for other in (base[0], np.array(p).T):
        other.flags.writeable = False
        assert TransitionMatrix(other).p is not other
    # an adopted array is still validated
    bad = np.array([[0.6, 0.6], [0.5, 0.5]])
    bad.flags.writeable = False
    with pytest.raises(ValueError, match="sum to 1"):
        TransitionMatrix(bad)


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


def test_level_search_matches_the_list_search():
    # 3,000 seeded digraphs, n from 1 to 40 and densities from 0 to 0.3, with self-loops
    # on the diagonal and, at low density, unreachable nodes; then the supports of MH chains
    rng = np.random.default_rng(20)
    masks = [rng.random((n, n)) < density
             for n, density in zip(rng.integers(1, 41, size=3000), np.arange(3000) % 31 / 100)]
    masks += [mh_chain(g, seed=5).support for g in (
        generate_ring_k(30, 2), generate_grid_diag(6),
        generate_random_geometric(40, 0.35, seed=3))]
    seen = {"unreachable": 0, "self-loop": 0, "strong": 0, "not strong": 0}
    for adjacency in masks:
        lists = [np.flatnonzero(row).tolist() for row in adjacency]
        source = int(rng.integers(len(adjacency)))
        order, parent = markov.bfs_tree(adjacency, source)
        assert (order.tolist(), parent.tolist()) == list_bfs_tree(lists, source)
        strong = markov.strongly_connected(adjacency)
        assert strong == list_strongly_connected(lists)
        seen["unreachable"] += -1 in parent
        seen["self-loop"] += adjacency.diagonal().any()
        seen["strong" if strong else "not strong"] += 1
    assert min(seen.values()) >= 100, seen


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


def test_stationary_of_a_large_mh_ring_matches_the_closed_form():
    # detailed balance down a tree; a square solve is off by about 1e-9 here
    g = assign_weights(generate_ring_k(1000, 3), "random_interval", seed=4)
    design = build_mh(g)
    for pi in stationary_distribution(design.matrix), analyze(design.matrix).pi:
        assert np.max(np.abs(pi - design.target_pi) / design.target_pi) <= 1e-13


@pytest.fixture
def solves(monkeypatch):
    """One entry per np.linalg.solve call made in the test."""
    calls = []
    original = np.linalg.solve

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return calls


def test_reversible_chains_take_no_square_solve(solves):
    for seed in range(5):
        g = assign_weights(random_connected_graph(12, seed), "random_interval", seed=seed)
        stationary_distribution(build_mh(g).matrix)
    assert solves == []


@pytest.mark.parametrize("p", [
    # symmetric support, but p01 p12 p20 != p02 p21 p10: not reversible
    [[0.1, 0.6, 0.3], [0.2, 0.1, 0.7], [0.5, 0.2, 0.3]],
    # a directed 4-cycle with self-loops: the support is not symmetric
    0.5 * np.eye(4) + 0.5 * np.roll(np.eye(4), 1, axis=1),
], ids=["not_reversible", "directed_cycle"])
def test_chains_without_detailed_balance_take_the_square_solve(p, solves):
    P = TransitionMatrix(np.array(p))
    ones = np.ones(P.n)
    reference = np.linalg.solve(_fundamental_system(P.p, ones).T, ones)
    reference = reference / reference.sum()
    assert stationary_distribution(P).tolist() == reference.tolist()
    assert len(solves) == 2  # the reference's and the chain's


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
    with pytest.raises(ValueError, match="not stationary"):
        fundamental_matrix(swap_matrix, np.array([0.5, np.nan]))


@pytest.fixture
def factorisations(monkeypatch):
    """One entry per np.linalg.cholesky call made in the test."""
    calls = []
    original = np.linalg.cholesky

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    return calls


def mh_chain(g, seed):
    return build_mh(assign_weights(g, "random_interval", seed=seed)).matrix


@pytest.mark.parametrize("make", [
    lambda: mh_chain(generate_ring_k(1000, 3), seed=4),
    lambda: mh_chain(generate_random_geometric(600, 2.0 / math.sqrt(600), seed=1), seed=2),
], ids=["ring-1000-k3", "geometric-600"])
def test_large_reversible_chains_take_the_cholesky_inverse(make, factorisations):
    P = make()
    pi = stationary_distribution(P)
    z = fundamental_matrix(P, pi)
    assert len(factorisations) == 1
    reference = np.diag(np.linalg.inv(_fundamental_system(P.p, pi)))
    assert np.max(np.abs(np.diag(z) - reference) / reference) <= 1e-12
    assert np.max(np.abs(z.sum(axis=1) - 1.0)) <= 1e-10


@pytest.mark.parametrize("make", [
    lambda: mh_chain(random_connected_graph(128, seed=3), seed=3),
    lambda: random_chain(random_connected_graph(200, seed=5), seed=6),
], ids=["reversible-128", "not-reversible-200"])
def test_small_or_non_reversible_chains_take_the_lu_inverse(make, factorisations):
    P = make()
    pi = stationary_distribution(P)
    reference = np.linalg.inv(_fundamental_system(P.p, pi))
    assert fundamental_matrix(P, pi).tolist() == reference.tolist()
    assert factorisations == []


def test_a_failed_factorisation_takes_the_lu_inverse(monkeypatch):
    def not_definite(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    P = mh_chain(generate_ring_k(200, 2), seed=7)
    pi = stationary_distribution(P)
    monkeypatch.setattr(np.linalg, "cholesky", not_definite)
    reference = np.linalg.inv(_fundamental_system(P.p, pi))
    assert fundamental_matrix(P, pi).tolist() == reference.tolist()


def test_return_time_moments_two_cycle(swap_matrix):
    analysis = analyze(swap_matrix)
    mean, second = return_time_moments(analysis, 0)
    assert mean == pytest.approx(2.0, abs=1e-12)
    assert second == pytest.approx(4.0, abs=1e-12)  # deterministic: variance 0


def test_return_time_moments_iid_uniform_matches_geometric():
    pi = np.full(4, 0.25)
    analysis = analyze(iid_chain(pi))
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
    analysis = analyze(iid_chain(pi))
    # hand formula: Z = I so row sums of |I - Pi| are 2 (1 - pi_i)
    assert analysis.discrepancy == 2.0 * (1.0 - 0.25)


def test_discrepancy_two_cycle(swap_matrix):
    analysis = analyze(swap_matrix)
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


def dense_chain(n, seed):
    p = np.random.default_rng(seed).uniform(0.1, 1.0, size=(n, n))
    return TransitionMatrix(p / p.sum(axis=1, keepdims=True))


@pytest.mark.parametrize("make", [
    lambda: mh_chain(random_connected_graph(7, seed=7), seed=1),
    lambda: mh_chain(random_connected_graph(256, seed=256), seed=1),
    lambda: mh_chain(random_connected_graph(600, seed=600), seed=1),
    lambda: random_chain(random_connected_graph(300, seed=8), seed=9),
    lambda: dense_chain(150, seed=10),
], ids=["one-block", "exact-block", "partial-block", "not-reversible", "dense-support"])
def test_blocked_residual_matches_dense_residual(make):
    P = make()
    n = P.n
    pi = stationary_distribution(P)
    m = np.eye(n) - P.p + np.tile(pi, (n, 1))
    assert np.array_equal(_fundamental_system(P.p, pi), m)
    z = fundamental_matrix(P, pi)
    dense = np.max(np.abs(m @ z - np.eye(n)))
    assert abs(_fundamental_residual(P, pi, z) - dense) <= 1e-14
    # a perturbed Z must show in the blocked check as in the dense one
    for (i, j), delta in zip([(n - 1, 0), (0, n - 1), (n // 2, n // 3), (n // 3, n // 3)],
                             [1e-6, -3e-7, 2e-5, -4e-6]):
        z[i, j] += delta
        dense = np.max(np.abs(m @ z - np.eye(n)))
        assert dense > 1e-7
        assert abs(_fundamental_residual(P, pi, z) - dense) <= 1e-14


def test_a_nan_fails_the_residual_and_validate():
    analysis = analyze(mh_chain(random_connected_graph(40, seed=2), seed=3))
    analysis.validate()
    z = analysis.z.copy()
    z[17, 5] = np.nan
    assert math.isnan(_fundamental_residual(analysis.matrix, analysis.pi, z))
    pi = analysis.pi.copy()
    pi[3] = np.nan
    for bad in dict(z=z), dict(pi=pi), dict(discrepancy=math.nan):
        with pytest.raises(NumericalError):
            dataclasses.replace(analysis, **bad).validate()


def test_a_matrix_builds_its_support_mask_and_tree_once(monkeypatch):
    # the mask serves every irreducibility check, the support test of build_mh and the
    # kept tree, which the detailed balance walk and every residual check read
    g = assign_weights(random_connected_graph(300, seed=11), "random_interval", seed=12)
    built = {"support": 0, "support_tree": 0}
    for name in built:
        original = TransitionMatrix.__dict__[name].func

        def counted(self, name=name, original=original):
            built[name] += 1
            return original(self)

        prop = functools.cached_property(counted)
        prop.__set_name__(TransitionMatrix, name)
        monkeypatch.setattr(TransitionMatrix, name, prop)
    searched = []
    search = markov.bfs_tree
    monkeypatch.setattr(markov, "bfs_tree",
                        lambda adjacency, source: searched.append(adjacency) or search(adjacency, source))
    P = build_mh(g).matrix
    analyze(P).validate()
    analyze(P).validate()
    assert built == {"support": 1, "support_tree": 1}
    # each irreducibility check searches the mask and its transpose; the tree searches the mask
    assert len(searched) == 5 and sum(a is P.support for a in searched) == 3


def test_analysis_validate_passes_on_real_chain():
    g = random_connected_graph(6, seed=8)
    analyze(random_chain(g, seed=9)).validate()


def test_analysis_rejects_supplied_nonstationary_pi(swap_matrix):
    with pytest.raises(ValueError):
        analyze(swap_matrix, pi=np.array([0.8, 0.2]))


def test_empirical_visit_frequency_matches_pi():
    g = random_connected_graph(8, seed=21)
    P = random_chain(g, seed=22)
    analysis = analyze(P)
    stats = simulate_randomized(g, P, 1_000_000, burn_in=10_000, seed=5)
    freq = stats.n_peaks / (stats.horizon - stats.burn_in)
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
    if kind == "mh":
        # a reversible chain's spectrum is that of the symmetric S = D^1/2 P D^-1/2
        root = np.sqrt(stationary_distribution(P))
        s = P.p * root[:, None] / root[None, :]
        spectrum = np.linalg.eigvalsh((s + s.T) / 2)
    else:
        spectrum = scipy.linalg.eigvals(P.p)
    reference = np.sort(np.abs(spectrum))[::-1][1]
    assert abs(slem(P) - reference) <= 1e-9


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


def test_analyze_leaves_the_slem_to_its_first_read(monkeypatch):
    calls = []

    def counted(P):
        calls.append(P)
        return slem(P)

    monkeypatch.setattr(markov, "slem", counted)
    g = assign_weights(random_connected_graph(12, seed=4), "random_interval", seed=4)
    P = random_chain(g, seed=5)
    analysis = analyze(P)
    assert calls == []
    assert analysis.slem == slem(P)
    assert analysis.slem == slem(P)
    assert len(calls) == 1 and calls[0] is P


def test_periodicity_warning_comes_from_reading_the_slem(swap_matrix):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        analysis = analyze(swap_matrix)
    with pytest.warns(PeriodicityWarning):
        assert analysis.slem == pytest.approx(1.0, abs=1e-12)
