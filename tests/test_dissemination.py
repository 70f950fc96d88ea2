import json
import math
from bisect import bisect_right

import numpy as np
import pytest
from scipy import stats as scipy_stats

from age_patrol import (AgeStats, DesignResult, DiscreteLaw, DisseminationPolicy,
                        QueueBacklogWarning, QueueModelParams, StabilityError,
                        TransitionMatrix, analyze, analytic_ages, berg1_vacation_peak_age,
                        build_fastest_mixing, dissemination, dissemination_report,
                        generate_grid_diag, generate_random_geometric, generate_ring_k,
                        policy_from_design, separation_policy, simulate_berg1_vacation,
                        markov, simulate_dissemination, simulate_randomized, simulation,
                        terminal_age_upper_bound)
from age_patrol.dissemination import _bernoulli_arrivals
from age_patrol.trajectory_design import build_mh
from conftest import make_complete, return_time_moments


def swap_design():
    return DesignResult(
        matrix=TransitionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
        target_pi=np.array([0.5, 0.5]),
        objective=1.0, iterations=0, converged=True)


D2 = DiscreteLaw.deterministic(2)


def test_vacation_peak_worked_example():
    params = QueueModelParams.from_laws(0.25, D2, D2)
    assert berg1_vacation_peak_age(params) == pytest.approx(7.0, abs=1e-12)
    # the system time: the peak age less the mean interarrival time
    assert berg1_vacation_peak_age(params) - 1 / 0.25 == pytest.approx(3.0, abs=1e-12)


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


@pytest.mark.parametrize("n", [50, 200, 1000])
def test_queue_params_accept_a_cycles_return_time_moments(n):
    # the return time is n exactly; rounding in Z puts E[T^2] - E[T]^2 a few ulps
    # of n^2 below 0, which an absolute 1e-12 tolerance rejected
    cycle = TransitionMatrix(np.roll(np.eye(n), 1, axis=1))
    analysis = analyze(cycle, pi=np.full(n, 1 / n))
    for i in range(n):
        m = return_time_moments(analysis, i)
        assert m[0] == pytest.approx(n) and m[1] == pytest.approx(n * n)
        params = QueueModelParams(0.5 / n, *m, *m)
        assert params.rho == pytest.approx(0.5)


@pytest.mark.parametrize("moments", [
    (math.nan, 4.0, 2.0, 4.0), (2.0, math.nan, 2.0, 4.0), (2.0, 4.0, math.nan, 4.0),
    (2.0, 4.0, 2.0, math.nan), (2.0, math.inf, 2.0, 4.0), (2.0, 4.0, math.inf, math.inf),
    (2.0, 4.0, 2.0, math.inf),
])
def test_queue_params_reject_nan_or_infinite_moments(moments):
    # each of these used to build, and the peak formula then returned nan or inf
    with pytest.raises(ValueError, match="finite"):
        QueueModelParams(0.2, *moments)


@pytest.mark.parametrize("probs", [(math.nan, math.nan), (0.5, math.nan), (math.inf, 0.0),
                                   (math.inf, -math.inf)])
def test_discrete_law_rejects_nan_or_infinite_probs(probs):
    # DiscreteLaw((1, 2), (nan, nan)) used to be accepted with mean nan, and the
    # vacation simulator then ran on it
    with pytest.raises(ValueError, match="probs"):
        DiscreteLaw((1, 2), probs)


@pytest.mark.parametrize("values", [(1.5, 2), (math.inf, 2), (math.nan, 2), (2, 1 + 1e-9)])
def test_discrete_law_rejects_fractional_or_infinite_slot_counts(values):
    # (1.5, 2) used to be truncated to (1, 2), and an infinite count raised OverflowError
    with pytest.raises(ValueError, match="slot counts must be finite integers"):
        DiscreteLaw(values, (0.5, 0.5))


def test_discrete_law_keeps_integral_slot_counts():
    law = DiscreteLaw((1.0, np.int64(3)), (0.5, 0.5))
    assert law.values == (1, 3) and all(type(v) is int for v in law.values)


def test_discrete_law_moments():
    law = DiscreteLaw.uniform([1, 2, 3])
    assert law.mean() == pytest.approx(2.0)
    assert law.second_moment() == pytest.approx(14.0 / 3.0)


def test_arrivals_zero_rate_is_empty():
    assert _bernoulli_arrivals(np.random.default_rng(0), 0.0, 1000).tolist() == []


def test_arrivals_unit_rate_fills_every_slot():
    assert _bernoulli_arrivals(np.random.default_rng(0), 1.0, 1000).tolist() == list(range(1, 1001))


@pytest.mark.parametrize("lam", [1e-300, 1e-18, 1e-12])
def test_arrivals_tiny_rate_does_not_wrap(lam):
    # numpy returns gaps near or at INT64_MAX here; unclipped, their running sum wraps
    # negative and every slot would look like an arrival
    for seed in range(5):
        assert _bernoulli_arrivals(np.random.default_rng(seed), lam, 100_000).tolist() == []


@pytest.mark.parametrize("lam", [0.002, 0.3, 0.9, 1.0])
@pytest.mark.parametrize("horizon", [1, 17, 5000])
def test_arrivals_increasing_within_horizon_and_seeded(lam, horizon):
    for seed in range(20):
        slots = _bernoulli_arrivals(np.random.default_rng(seed), lam, horizon).tolist()
        assert all(isinstance(t, int) for t in slots)
        assert all(1 <= t <= horizon for t in slots)
        assert all(a < b for a, b in zip(slots, slots[1:]))
        assert slots == _bernoulli_arrivals(np.random.default_rng(seed), lam, horizon).tolist()


def test_arrivals_extend_a_short_first_chunk():
    # the first chunk almost always covers the horizon; chunks of 3 draws test the loop
    class ShortChunks:
        def __init__(self, seed):
            self.rng = np.random.default_rng(seed)
            self.calls = 0

        def geometric(self, p, size):
            self.calls += 1
            return self.rng.geometric(p, size=3)

    short = ShortChunks(3)
    slots = _bernoulli_arrivals(short, 0.5, 200).tolist()
    assert short.calls > 10
    stream = np.cumsum(np.random.default_rng(3).geometric(0.5, size=3 * short.calls))
    assert slots == stream[stream <= 200].tolist()


# confidence level of every two-sided statistical check below
CONFIDENCE = 0.999


@pytest.mark.parametrize("lam", [0.002, 0.3, 0.9])
def test_arrival_count_mean_and_variance(lam):
    """The count over H slots is Binomial(H, lam): check its mean and variance.

    H is chosen so that H lam (1 - lam) is about 200; the variance check uses the
    exact standard error of a sample variance, sigma^2 sqrt(2/(R-1) + kappa/R),
    with the binomial excess kurtosis kappa.
    """
    reps = 2000
    horizon = math.ceil(200 / (lam * (1 - lam)))
    rng = np.random.default_rng(int(lam * 1000))
    counts = np.array([len(_bernoulli_arrivals(rng, lam, horizon)) for _ in range(reps)])
    mean, var = horizon * lam, horizon * lam * (1 - lam)
    kappa = (1 - 6 * lam * (1 - lam)) / var
    z = scipy_stats.norm.ppf(0.5 + CONFIDENCE / 2)
    assert abs(counts.mean() - mean) <= z * math.sqrt(var / reps)
    assert abs(counts.var(ddof=1) - var) <= z * var * math.sqrt(2 / (reps - 1) + kappa / reps)


@pytest.mark.parametrize("lam", [0.002, 0.3, 0.9])
def test_arrival_gaps_are_geometric(lam):
    """Chi-square test of the gap histogram against the Geometric(lam) pmf.

    Bins run 1, 2, ... while every expected count is at least 5, and one tail
    bin takes the rest.
    """
    horizon = math.ceil(20_000 / lam)
    slots = _bernoulli_arrivals(np.random.default_rng(int(lam * 1000) + 1), lam, horizon).tolist()
    gaps = np.diff(np.array([0] + slots))
    total = len(gaps)
    pmf = []
    while total * lam * (1 - lam) ** len(pmf) >= 5 and total * (1 - lam) ** (len(pmf) + 1) >= 5:
        pmf.append(lam * (1 - lam) ** len(pmf))
    expected = total * np.array(pmf + [1 - sum(pmf)])
    observed = np.bincount(np.minimum(gaps, len(pmf) + 1) - 1, minlength=len(expected))
    assert observed.sum() == total
    _, p_value = scipy_stats.chisquare(observed, expected)
    assert p_value > 1 - CONFIDENCE


BATCHES = 8


def batch_interval(samples):
    """(mean, half width) of the 8-batch batch-means interval at CONFIDENCE.

    With several columns, each column gets its own interval.
    """
    x = np.asarray(samples, dtype=float)
    assert len(x) == BATCHES
    t = scipy_stats.t.ppf(0.5 + CONFIDENCE / 2, BATCHES - 1)
    return x.mean(axis=0), t * x.std(axis=0, ddof=1) / math.sqrt(BATCHES)


@pytest.mark.parametrize("lam, service, vacation", [
    (0.25, D2, D2),
    (0.3, DiscreteLaw.uniform([1, 2, 3]), DiscreteLaw((1, 4), (0.75, 0.25))),
], ids=["worked-example", "mixed-laws"])
def test_vacation_batch_interval_contains_exact_peak(lam, service, vacation):
    exact = berg1_vacation_peak_age(QueueModelParams.from_laws(lam, service, vacation))
    peaks = [simulate_berg1_vacation(lam, service, vacation, 200_000, seed=100 + b).empirical_peak
             for b in range(BATCHES)]
    mean, half = batch_interval(peaks)
    assert abs(mean - exact) <= half, (mean, half, exact)


@pytest.mark.parametrize("instance", ["k2", "geometric8"])
def test_dissemination_batch_intervals_within_bounds(instance):
    if instance == "k2":
        g, policy = make_complete(2), policy_from_design(swap_design())
    else:
        g = generate_random_geometric(8, 0.7, seed=2)
        policy = separation_policy(g)
    batches = [simulate_dissemination(g, policy, 60_000, seed=200 + b) for b in range(BATCHES)]
    peaks = np.array([s.per_terminal_peak for s in batches])
    mean, half = batch_interval(peaks)
    assert np.all(mean - half <= policy.upper_bounds), (mean, half, policy.upper_bounds)


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


def slot_loop_vacation(lam, service, vacation, horizon, burn_in, seed):
    """The vacation queue as a per-slot countdown, with its ages counted slot by slot.

    The server draws a duration whenever an activity ends and counts it down
    one slot at a time; the arrivals and the uniforms come from the generator
    in the simulator's order, the uniforms in one call (at most one per slot
    plus the first).  Returns (peak, average, deliveries) and whether an
    activity ended in the last slot.
    """
    rng = np.random.default_rng(seed)
    arrivals = _bernoulli_arrivals(rng, lam, horizon).tolist()
    uniforms = iter(rng.random(horizon + 1).tolist())

    def draw(law):
        cum = np.cumsum(law.probs).tolist()
        return law.values[min(bisect_right(cum, next(uniforms)), len(law.values) - 1)]

    ptr, serving, head, base = 0, False, 0, 0
    age_sum, peaks, ended = 0, [], False
    remaining = draw(vacation)
    for t in range(1, horizon + 1):
        if t > burn_in:
            age_sum += t - base
        remaining -= 1
        ended = remaining == 0
        if remaining > 0:
            continue
        if serving:
            if t > burn_in:
                peaks.append(t - base)
            base = head
        if ptr < len(arrivals) and arrivals[ptr] <= t:
            head = arrivals[ptr]
            ptr += 1
            serving = True
            remaining = draw(service)
        else:
            serving = False
            remaining = draw(vacation)
    peak = sum(peaks) / len(peaks) if peaks else math.nan
    return (peak, age_sum / (horizon - burn_in), len(peaks)), ended


LAWS = {"one": DiscreteLaw.deterministic(1), "two": D2,
        "three": DiscreteLaw.uniform([1, 2, 3]), "mixed": DiscreteLaw((1, 4), (0.75, 0.25)),
        "wide": DiscreteLaw((2, 5, 9), (0.2, 0.5, 0.3))}
# (lam, service, vacation): unit laws end an activity in every slot, the horizon included
VACATION_QUEUES = [(0.6, "one", "one"), (0.3, "two", "three"), (0.3, "mixed", "wide"),
                   (0.15, "wide", "two")]


def test_vacation_simulator_matches_the_slot_loop(monkeypatch):
    cases = [(queue, horizon, (horizon - 1) // 3, 10 * k + h)
             for k, queue in enumerate(VACATION_QUEUES)
             for h, horizon in enumerate([1, 2, 5, 17, 1000, 20_000])]
    ends_on_horizon = 0
    for (lam, service, vacation), horizon, burn_in, seed in cases:
        expected, ended = slot_loop_vacation(lam, LAWS[service], LAWS[vacation], horizon,
                                             burn_in, seed)
        ends_on_horizon += ended
        for chunk in (simulation._WALK_BUFFER, 3):
            monkeypatch.setattr(simulation, "_WALK_BUFFER", chunk)
            sim = simulate_berg1_vacation(lam, LAWS[service], LAWS[vacation], horizon,
                                          burn_in, seed)
            np.testing.assert_equal(
                (sim.empirical_peak, sim.empirical_avg, sim.n_deliveries, sim.burn_in),
                expected + (burn_in,), err_msg=f"{lam, service, vacation, horizon, chunk}")
        monkeypatch.undo()
    assert len(cases) >= 20 and ends_on_horizon >= 6


def hand_expanded_bound(analysis, i, rho_i):
    """The dissemination bound written out term by term from z_ii and pi_i."""
    pi_i = float(analysis.pi[i])
    z_ii = float(analysis.z_diag[i])
    return ((1.0 / pi_i) * (1.0 + z_ii + 1.0 / rho_i + z_ii * rho_i / (1.0 - rho_i))
            - rho_i / (1.0 - rho_i) - 1.0)


def test_terminal_bound_matches_the_hand_expansion():
    worst = 0.0
    for seed in range(5):
        g = generate_random_geometric(40, 2.0 / math.sqrt(40), seed=seed)
        design = build_mh(g)
        analysis = analyze(design.matrix, pi=design.target_pi)
        optimal = policy_from_design(design).rho
        for i in range(g.n):
            for rho in [optimal[i], 0.05, 0.2, 0.5, 0.8, 0.9]:
                reference = hand_expanded_bound(analysis, i, rho)
                bound = terminal_age_upper_bound(analysis, i, rho)
                worst = max(worst, abs(bound - reference) / reference)
    assert worst <= 4e-15


def test_terminal_bound_on_a_long_cycle_matches_its_closed_form():
    # the return time is n exactly, so rounding in Z can put its variance below 0
    n = 200
    cycle = DesignResult(TransitionMatrix(np.roll(np.eye(n), 1, axis=1)), np.full(n, 1 / n),
                         None, 0, True)
    analysis = analyze(cycle.matrix, pi=cycle.target_pi)
    for rho in [0.05, 0.2, 0.5, 0.8, 0.9]:
        exact = n / rho + n + rho * (n - 1) / (2 * (1 - rho)) + (n - 1) / 2
        bounds = [terminal_age_upper_bound(analysis, i, rho) for i in range(n)]
        assert np.max(np.abs(np.array(bounds) / exact - 1)) <= 4e-15
    assert np.all(np.isfinite(policy_from_design(cycle).upper_bounds))


DESIGN_GRAPHS = {"geometric40": lambda: generate_random_geometric(40, 2.0 / math.sqrt(40), 1),
                 "grid16": lambda: generate_grid_diag(4), "ring21": lambda: generate_ring_k(21, 3)}


@pytest.fixture(scope="module", params=[(name, method) for name in DESIGN_GRAPHS
                                        for method in ("mh", "fastest")], ids=str)
def design_case(request):
    name, method = request.param
    g = DESIGN_GRAPHS[name]()
    return build_mh(g) if method == "mh" else build_fastest_mixing(g)


def test_policy_bounds_match_the_vacation_queue_oracle(design_case):
    # the general vacation-queue formula on the return-time moments, terminal by terminal
    analysis = analyze(design_case.matrix, pi=design_case.target_pi)
    optimal = policy_from_design(design_case).rates
    for scale in (0.5, 1.0, 1.3):
        policy = policy_from_design(design_case, rates=optimal * scale)
        stable = np.flatnonzero(policy.rho < 1)
        assert len(stable)
        for i in stable:
            m = return_time_moments(analysis, i)
            oracle = berg1_vacation_peak_age(QueueModelParams(policy.rates[i], *m, *m))
            assert abs(policy.upper_bounds[i] / oracle - 1) <= 4e-15, (scale, i)


def test_policy_rates_follow_the_scalar_rule(design_case):
    # pi_i times the optimal utilization, as the rates were always computed; writing
    # it pi_i / (1 + sqrt(...)) instead moves some rates by an ulp
    analysis = analyze(design_case.matrix, pi=design_case.target_pi)
    expected = [pi_i * (1.0 / (1.0 + math.sqrt(max(z_ii - pi_i, 0.0))))
                for pi_i, z_ii in zip(analysis.pi.tolist(), analysis.z_diag.tolist())]
    assert policy_from_design(design_case).rates.tolist() == expected


def test_policy_bound_is_infinite_outside_the_stable_range():
    policy = policy_from_design(swap_design(), rates=[0.5, 0.25])
    assert policy.upper_bounds.tolist() == [math.inf, 7.0]  # the worked example
    policy = policy_from_design(swap_design(), rates=[0.0, 0.6])
    assert np.all(np.isinf(policy.upper_bounds))


def test_terminal_bound_takes_an_index_array():
    analysis = analyze(build_mh(generate_ring_k(9, 2)).matrix)
    terminals, rho = np.array([0, 4, 8]), np.array([0.2, 0.5, 0.9])
    bounds = terminal_age_upper_bound(analysis, terminals, rho)
    assert bounds.tolist() == [terminal_age_upper_bound(analysis, i, r)
                               for i, r in zip(terminals.tolist(), rho.tolist())]
    with pytest.raises(ValueError):
        terminal_age_upper_bound(analysis, terminals, np.array([0.2, math.nan, 0.9]))


def test_terminal_bound_two_cycle(swap_matrix):
    analysis = analyze(swap_matrix)
    assert terminal_age_upper_bound(analysis, 0, 2.0 / 3.0) == pytest.approx(6.5, abs=1e-12)
    # the optimum utilization reproduces the closed-form minimum
    rho_star = float(policy_from_design(swap_design()).rho[0])
    assert rho_star == pytest.approx(2.0 / 3.0, abs=1e-15)
    z, pi = 0.75, 0.5
    closed_form = (z - pi + 2.0 * math.sqrt(z - pi) + 2.0) / pi
    assert terminal_age_upper_bound(analysis, 0, rho_star) == pytest.approx(closed_form)


def test_terminal_bound_diverges_at_small_rho(swap_matrix):
    analysis = analyze(swap_matrix)
    assert terminal_age_upper_bound(analysis, 0, 1e-9) > 1e8
    with pytest.raises(ValueError):
        terminal_age_upper_bound(analysis, 0, 0.0)
    with pytest.raises(ValueError):
        terminal_age_upper_bound(analysis, 0, 1.0)


def test_separation_rates_on_swap_k2(k2):
    policy = policy_from_design(swap_design())
    assert np.allclose(policy.rates, 1.0 / 3.0, atol=1e-12)
    assert np.allclose(policy.upper_bounds, 6.5, atol=1e-12)


def test_separation_rates_iid_chain_complete_graph():
    n = 5
    g = make_complete(n)
    pi = np.full(n, 1.0 / n)
    design = DesignResult(matrix=TransitionMatrix(np.tile(pi, (n, 1))), target_pi=pi,
                          objective=0.0, iterations=0, converged=True)
    policy = policy_from_design(design)
    expected = (1.0 / n) / (1.0 + math.sqrt(1.0 - 1.0 / n))
    assert np.allclose(policy.rates, expected, atol=1e-12)


def test_separation_policy_rates_below_pi():
    g = generate_random_geometric(15, 0.55, seed=2)
    policy = separation_policy(g)
    assert np.all(policy.rates > 0)
    assert np.all(policy.rates < policy.target_pi)
    policy.validate()


def test_policy_json_round_trip():
    policy = policy_from_design(swap_design())
    clone = DisseminationPolicy.from_json(json.loads(json.dumps(policy.to_json())))
    assert np.allclose(clone.rates, policy.rates)
    assert np.allclose(clone.upper_bounds, policy.upper_bounds)
    assert clone.discrepancy == policy.discrepancy


def test_a_design_is_analyzed_once_across_its_policies(monkeypatch):
    calls = []
    original = markov.analyze

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(markov, "analyze", counted)
    g = generate_ring_k(9, 2)
    design = build_mh(g)
    analysis = design.analysis
    assert design.analysis is analysis
    optimal = policy_from_design(design)
    halved = policy_from_design(design, rates=optimal.rates / 2)
    separation = separation_policy(g, design=design)
    assert len(calls) == 1
    assert calls[0][0] is design.matrix
    assert np.array_equal(analysis.pi, original(design.matrix, pi=design.target_pi).pi)
    assert np.array_equal(separation.rates, optimal.rates)
    assert np.array_equal(halved.rates, optimal.rates / 2)

def test_simulate_dissemination_rejects_a_matrix_off_the_graph():
    # a design built on another graph of the same size used to walk along non-edges
    g = generate_ring_k(8, 1)
    uniform = TransitionMatrix(np.full((8, 8), 1 / 8))
    policy = policy_from_design(DesignResult(uniform, np.full(8, 1 / 8), None, 0, True))
    with pytest.raises(ValueError, match="non-edges of the graph"):
        simulate_randomized(g, uniform, 1000)
    with pytest.raises(ValueError, match="non-edges of the graph"):
        simulate_dissemination(g, policy, 1000)


def test_dissemination_zero_rates_ages_grow(k2, swap_matrix):
    policy = DisseminationPolicy(
        matrix=swap_matrix, target_pi=np.array([0.5, 0.5]), rates=np.zeros(2),
        upper_bounds=np.full(2, np.inf), discrepancy=0.5)
    horizon = 10_000
    stats = simulate_dissemination(k2, policy, horizon, burn_in=0, seed=0)
    assert np.all(stats.n_peaks == 0)
    # ages ramp 1..T: mean is (T+1)/2 per terminal
    assert np.allclose(stats.per_terminal_avg, (horizon + 1) / 2.0)


def _policy_with_rates(swap_matrix, rates, target_pi=(0.5, 0.5)):
    return DisseminationPolicy(
        matrix=swap_matrix, target_pi=np.array(target_pi), rates=np.array(rates),
        upper_bounds=np.full(2, 7.0), discrepancy=0.5)


# a NaN rate used to pass these checks and generate no packet at all; a NaN
# target_pi makes the utilization rho = rates / target_pi NaN
@pytest.mark.parametrize("rates, target_pi", [
    ([math.nan, 0.2], [0.5, 0.5]),
    ([0.2, 0.2], [math.nan, 0.5]),
    ([-0.1, 0.2], [0.5, 0.5]),
], ids=["nan-rate", "nan-rho", "negative-rate"])
def test_simulate_dissemination_rejects_nan_or_negative_rates(k2, swap_matrix, rates,
                                                              target_pi):
    with pytest.raises(StabilityError):
        simulate_dissemination(k2, _policy_with_rates(swap_matrix, rates, target_pi), 1000,
                               seed=0)


def test_policy_validate_rejects_nan_rates(swap_matrix):
    with pytest.raises(StabilityError):
        _policy_with_rates(swap_matrix, [math.nan, 0.2]).validate()


def test_dissemination_peaks_within_bound_k2(k2):
    policy = policy_from_design(swap_design())
    stats = simulate_dissemination(k2, policy, 1_000_000, burn_in=10_000, seed=3)
    assert np.all(stats.per_terminal_peak <= policy.upper_bounds * 1.02)
    assert np.all(stats.per_terminal_avg <= stats.per_terminal_peak * 1.02)


def test_dissemination_suboptimal_rates_still_bounded(k2):
    base = policy_from_design(swap_design())
    policy = policy_from_design(swap_design(), rates=base.rates / 2.0)
    stats = simulate_dissemination(k2, policy, 400_000, burn_in=8_000, seed=4)
    assert np.all(stats.per_terminal_peak <= policy.upper_bounds * 1.02)


def test_dissemination_fcfs_event_order(k2):
    policy = policy_from_design(swap_design())
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


def test_dissemination_event_log_horizon_limit(k2):
    policy = policy_from_design(swap_design())
    _, events = simulate_dissemination(k2, policy, 100_000, record_events=True)
    assert events[-1][0] == 100_000
    with pytest.raises(ValueError, match="traces and event logs are limited"):
        simulate_dissemination(k2, policy, 100_001, record_events=True)


def test_dissemination_deterministic_under_seed(k2):
    policy = policy_from_design(swap_design())
    a = simulate_dissemination(k2, policy, 50_000, seed=11)
    b = simulate_dissemination(k2, policy, 50_000, seed=11)
    assert np.array_equal(a.per_terminal_avg, b.per_terminal_avg)
    assert np.array_equal(a.per_terminal_peak, b.per_terminal_peak)


def test_dissemination_backlog_warning(k2, swap_matrix, monkeypatch):
    # rates just below the visit rate plus a tiny warning threshold
    monkeypatch.setattr(dissemination, "QUEUE_WARNING_THRESHOLD", 40)
    policy = DisseminationPolicy(
        matrix=swap_matrix, target_pi=np.array([0.5, 0.5]), rates=np.array([0.499, 0.499]),
        upper_bounds=np.full(2, np.inf), discrepancy=0.5)
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
    policy = policy_from_design(swap_design())
    stats = simulate_dissemination(k2, policy, 400_000, burn_in=8_000, seed=7)
    report = dissemination_report(policy, stats, k2.weights)
    assert report["hard_checks"]["peak_bounds_pass"]
    assert report["hard_checks"]["avg_within_peak_pass"]
    clone = json.loads(json.dumps(report))
    assert clone == report
    assert report["mixing_proxy"]["h_proxy"] == pytest.approx(policy.discrepancy / 4.0)


@pytest.mark.parametrize("peak_scale, avg_scale, last, passes", [
    (0.9, 0.9, 0.8, (True, True)), (1.05, 0.9, 0.8, (False, True)),
    (0.9, 1.05, 0.8, (True, False)), (0.9, 0.9, math.nan, (False, False)),
], ids=["within", "peak-over", "avg-over", "unvisited"])
def test_dissemination_report_matches_a_per_terminal_loop(peak_scale, avg_scale, last, passes):
    # the per-terminal rows and hard checks, recomputed one terminal at a time
    g = generate_ring_k(6, 1)
    policy = policy_from_design(build_mh(g))
    # terminal 2 is over its bound and its peak, but within the 2% margin
    peak = policy.upper_bounds * np.array([0.5, 0.9, 1.01, 0.7, peak_scale, last])
    avg = peak * np.array([0.5, avg_scale, 1.01, 0.9, 0.9, 1.0])
    stats = AgeStats(peak, avg, np.ones(6, dtype=int), 1.0, 1.0, 100, 0)
    report = dissemination_report(policy, stats, g.weights)
    rows = [{"terminal": i, "rate": float(policy.rates[i]),
             "rho": float(policy.rates[i] / policy.target_pi[i]),
             "empirical_peak": float(peak[i]), "upper_bound": float(policy.upper_bounds[i]),
             "peak_within_bound": bool(peak[i] <= policy.upper_bounds[i] * 1.02),
             "empirical_avg": float(avg[i]), "avg_within_peak": bool(avg[i] <= peak[i] * 1.02)}
            for i in range(6)]
    np.testing.assert_equal(report["per_terminal"], rows)
    assert (report["hard_checks"]["peak_bounds_pass"],
            report["hard_checks"]["avg_within_peak_pass"]) == passes
