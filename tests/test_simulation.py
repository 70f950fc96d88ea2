import dataclasses
import pickle
import warnings
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from age_patrol import (AgeStats, DiscreteLaw, QueueBacklogWarning, TransitionMatrix, analytic_ages,
                        analyze, assign_weights, average_age_lower_bound, build_mh,
                        dissemination, generate_grid_diag,
                        generate_random_geometric, generate_ring_k, markov, periodic_exact_ages,
                        separation_policy, simulate_age_based, simulate_berg1_vacation,
                        simulate_dissemination, simulate_periodic, simulate_randomized,
                        simulation)
from age_patrol.simulation import _AgeEngine
from conftest import (brute_force_optimal_periodic, make_complete, make_fig_tree, make_path,
                      random_chain, random_connected_graph)


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


def test_randomized_trace_horizon_limit(k2, swap_matrix):
    _, trace = simulate_randomized(k2, swap_matrix, 100_000, record_trace=True)
    assert trace.horizon == 100_000
    with pytest.raises(ValueError, match="traces and event logs are limited"):
        simulate_randomized(k2, swap_matrix, 100_001, record_trace=True)


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
    # trace ages at visit slots equal the gaps between visits
    for i in range(3):
        slots = np.flatnonzero(trace.visit_log == i) + 1
        gaps = np.diff(np.concatenate([[0], slots]))
        assert np.array_equal(ages[slots - 1, i], gaps)


def test_peak_mean_equals_visit_gap_mean(triangle):
    design = build_mh(triangle)
    stats, trace = simulate_randomized(triangle, design.matrix, 50_000, burn_in=0, seed=8,
                                       record_trace=True)
    for i in range(3):
        slots = np.flatnonzero(trace.visit_log == i) + 1
        gaps = np.diff(np.concatenate([[0], slots]))
        assert stats.per_terminal_peak[i] == pytest.approx(np.mean(gaps))


def test_age_based_tree_walk_is_depth_first():
    tree = make_fig_tree()
    _, trace = simulate_age_based(tree, horizon=13, burn_in=0, start=0, record_trace=True)
    assert trace.visit_log.tolist() == [0, 1, 3, 1, 4, 1, 0, 2, 5, 2, 6, 2, 0]


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


# tours of a path, a ring with k = 2 (stepping by 2 and by 1) and a grid with diagonals
TOURS = {
    "path-5": (make_path(5), [0, 1, 2, 3, 4, 3, 2, 1]),
    "ring-7": (generate_ring_k(7, 2), [0, 2, 4, 6, 1, 3, 5, 6]),
    "grid-3": (generate_grid_diag(3), [0, 1, 2, 5, 4, 3, 6, 7, 8, 4]),
}


@pytest.mark.parametrize("name", sorted(TOURS))
@pytest.mark.parametrize("seed", [1, 2])
def test_periodic_exact_ages_equal_a_two_period_replay(name, seed):
    g, seq = TOURS[name]
    g = assign_weights(g, "random_interval", seed=seed)
    exact = periodic_exact_ages(seq, g.weights)
    replay = simulate_periodic(g, seq, 2 * len(seq))
    assert (exact.horizon, exact.burn_in) == (2 * len(seq), len(seq))
    for f in dataclasses.fields(AgeStats):
        a, b = getattr(exact, f.name), getattr(replay, f.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


@pytest.mark.parametrize("seq, message", [
    ([0, 1, -1], "terminal -1 out of range"),   # read as terminal 2
    ([0, 1, 2, 3], "terminal 3 out of range"),  # raised IndexError
    ([0, 1.7, 2], "must be integers"),          # truncated to [0, 1, 2]
])
def test_bad_tours_are_rejected(triangle, seq, message):
    with pytest.raises(ValueError, match=message):
        periodic_exact_ages(seq, np.ones(3))
    with pytest.raises(ValueError, match=message):
        simulate_periodic(triangle, seq, 3 * len(seq))


def test_recording_leaves_the_statistics_unchanged():
    g = generate_random_geometric(10, 0.6, seed=3)
    design = build_mh(g)
    policy = separation_policy(g, design=design)
    runs = {
        "randomized": lambda record: simulate_randomized(g, design.matrix, 3000, seed=3,
                                                         start=4, record_trace=record),
        "age_based": lambda record: simulate_age_based(g, 3000, record_trace=record),
        "periodic": lambda record: simulate_periodic(make_path(3), [0, 1, 2, 1], 3000,
                                                     record_trace=record),
        "dissemination": lambda record: simulate_dissemination(g, policy, 3000, seed=5,
                                                               record_events=record),
    }
    for name, run in runs.items():
        recorded, _ = run(True)
        assert pickle.dumps(recorded) == pickle.dumps(run(False)), name


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


def engine_stats(n, horizon, burn_in, deliveries, weights):
    """Feed the deliveries to the engine one `_WALK_BUFFER`-slot chunk at a time."""
    rows = np.array(deliveries, dtype=np.int64).reshape(-1, 3)
    engine = _AgeEngine(n, horizon, burn_in)
    chunk = simulation._WALK_BUFFER
    for t0 in range(1, horizon + 1, chunk):
        t, i, generated = rows[(rows[:, 0] >= t0) & (rows[:, 0] < t0 + chunk)].T
        engine.add(i, t, generated)
    return engine.finish(weights)


def check_engine_against_per_slot_ages(run):
    # naive reference: the age in slot s is s minus the generation slot of the
    # last update delivered strictly before s (0 before the first delivery)
    n, horizon, burn_in, deliveries = run
    weights = np.arange(1.0, n + 1.0)
    stats = engine_stats(n, horizon, burn_in, deliveries, weights)

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


@settings(max_examples=300, deadline=None)
@given(delivery_runs())
@example((2, 6, 0, [(1, 0, 1), (3, 0, 2), (6, 0, 4)]))        # burn-in 0; terminal 1 never
@example((3, 8, 3, [(3, 1, 3), (5, 1, 4), (8, 0, 2), (8, 1, 8)]))  # slots burn_in and horizon
@example((1, 5, 4, [(2, 0, 1), (4, 0, 4)]))                   # no delivery inside the window
def test_age_engine_matches_per_slot_ages(run):
    check_engine_against_per_slot_ages(run)


@settings(max_examples=300, deadline=None)
@given(delivery_runs())
@example((2, 9, 4, [(1, 0, 1), (3, 0, 2), (7, 1, 5), (9, 0, 9)]))  # a ramp spans two chunks
@example((3, 8, 3, [(3, 1, 3), (5, 1, 4), (8, 0, 2), (8, 1, 8)]))  # slots burn_in and horizon
def test_age_engine_matches_per_slot_ages_in_chunks_of_3(run):
    # ramps, the burn-in slot and the horizon fall across chunk boundaries
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "_WALK_BUFFER", 3)
        check_engine_against_per_slot_ages(run)


def every_simulator(threshold):
    """Fixed-seed outputs of every simulator, pickled, with their warnings."""
    g = generate_random_geometric(10, 0.6, seed=3)
    design = build_mh(g)
    policy = separation_policy(g, design=design)
    runs = {
        "randomized": lambda: simulate_randomized(g, design.matrix, 2000, burn_in=17, seed=3,
                                                  start=4, record_trace=True),
        "age_based": lambda: simulate_age_based(g, 2000, burn_in=5, record_trace=True),
        "periodic": lambda: simulate_periodic(make_path(3), [0, 1, 2, 1], 2000, burn_in=7,
                                              record_trace=True),
        "dissemination": lambda: simulate_dissemination(g, policy, 2000, burn_in=11, seed=5,
                                                        record_events=True),
        "vacation": lambda: simulate_berg1_vacation(0.3, DiscreteLaw.uniform([1, 2, 3]),
                                                    DiscreteLaw((1, 4), (0.75, 0.25)),
                                                    2000, burn_in=9, seed=6),
        # arrivals at nearly the full visit rate, so a queue grows past the threshold
        "backlog": lambda: simulate_dissemination(
            g, dissemination.policy_from_design(design, rates=design.target_pi * 0.999),
            20_000, seed=7),
    }
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dissemination, "QUEUE_WARNING_THRESHOLD", threshold)
        for name, run in runs.items():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = run()
            out[name] = (pickle.dumps(result), [(str(w.message), w.category, w.filename, w.lineno)
                                        for w in caught])
    return out


def test_simulators_do_not_depend_on_the_chunk_size(monkeypatch):
    default = every_simulator(threshold=3)
    assert default["backlog"][1][0][0] == (
        "queue 0 holds 4 packets after its visit in slot 60, more than 3")
    assert default["backlog"][1][0][1:3] == (QueueBacklogWarning, __file__)
    monkeypatch.setattr(simulation, "_WALK_BUFFER", 3)
    assert every_simulator(threshold=3) == default


# Reference walkers: one plain per-slot bisect_right draw, and one plain
# w_j (a*a + a) argmax, against the guide-table walk and the tabled score.

def reference_random_walk(P, start, uniforms) -> np.ndarray:
    """Positions in slots 1..len(uniforms) + 1, one bisect_right draw per slot."""
    rows = []
    for row in P.p:
        nz = np.flatnonzero(row)
        rows.append((np.cumsum(row[nz]).tolist(), nz.tolist() + [int(nz[-1])]))
    cur = start
    positions = [cur]
    for u in uniforms:
        cum, vals = rows[cur]
        cur = vals[bisect_right(cum, u)]
        positions.append(cur)
    return np.array(positions)


def reference_age_based_walk(g, start, horizon) -> np.ndarray:
    """Positions in slots 1..horizon + 1, scoring w_j (a*a + a) in every slot, ties to lowest j."""
    w = g.weights.tolist()
    last = [0] * g.n
    cur = start
    positions = [cur]
    for t in range(1, horizon + 1):
        last[cur] = t
        best_val, best_j = -1.0, -1
        for j in g.neighbors[cur]:
            a = t - last[j]
            val = w[j] * (a * a + a)
            if val > best_val:
                best_val, best_j = val, j
        cur = best_j
        positions.append(cur)
    return np.array(positions)


def walked(chunks) -> np.ndarray:
    """The positions of a walk given as `_walk` chunks, each slot once."""
    chunks = [positions for _, positions in chunks]
    return np.concatenate([chunks[0][:1]] + [positions[1:] for positions in chunks])


def reference_stats(g, positions, horizon, burn_in):
    return simulation._gather(g, [(1, positions)], horizon, burn_in, False)


def same(a, b) -> bool:
    """Bit-identical records (arrays and NaNs included)."""
    return pickle.dumps(a) == pickle.dumps(b)


def chain_from_rows(rows) -> TransitionMatrix:
    """The chain with these rows (complete support graph assumed)."""
    return TransitionMatrix(np.array(rows, dtype=float))


# boundaries on k/256, a row whose cumulative sum rounds to 0.9999999999999999,
# a row with a tiny last entry, and rows with zero entries
EDGE_ROWS = [
    [1 / 256, 127 / 256, 0.0, 64 / 256, 64 / 256, 0.0],
    [0.0, 0.5, 0.25, 0.125, 0.0625, 0.0625],
    [0.3, 0.3, 0.1, 0.1, 0.1, 0.1],
    [0.3, 0.0, 0.0, 0.3, 0.4 - 1e-13, 1e-13],
    [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
]


def edge_uniforms(P) -> list:
    """Uniforms on, and one ulp either side of, every bucket edge and CDF boundary of P."""
    points = {k / 256 for k in range(256)}
    for row in P.p:
        points |= set(np.cumsum(row[row > 0]).tolist())
    out = set()
    for x in points:
        out |= {x, np.nextafter(x, 0.0), np.nextafter(x, 1.0)}
    return sorted(u for u in out if 0.0 <= u < 1.0)


def test_guide_tables_draw_what_bisect_draws_at_every_edge():
    cums = [np.cumsum(row) for row in EDGE_ROWS]
    assert np.array_equal(cums[0] * 256, [1, 128, 128, 192, 256, 256])
    assert cums[2][-1] == np.nextafter(1.0, 0.0)
    assert 255 / 256 < cums[3][-2] < cums[3][-1] == 1.0
    P = chain_from_rows(EDGE_ROWS)
    rows, guides = P.samplers
    for i in range(P.n):
        cum, vals = rows[i]
        for u in edge_uniforms(P):
            entry = guides[i][int(u * 256)]
            assert entry < 0 or entry == vals[bisect_right(cum, u)], (i, u)
    # a bucket is searched only where it holds a boundary between two values
    assert [guide.count(-1) for guide in guides] == [0, 0, 5, 3, 0, 0]
    assert list(guides[4]) == [5] * 256 and list(guides[5]) == [0] * 256


class ScriptedUniforms:
    """A generator stand-in whose `random(size)` hands out a fixed stream."""

    def __init__(self, uniforms):
        self.stream = np.asarray(uniforms, dtype=float)

    def random(self, size):
        out, self.stream = self.stream[:size], self.stream[size:]
        return np.concatenate([out, np.zeros(size - len(out))])


def test_walk_on_edge_uniforms_matches_the_reference():
    P = chain_from_rows(EDGE_ROWS)
    uniforms = np.random.default_rng(0).permutation(edge_uniforms(P) * 20)
    for start in range(P.n):
        got = walked(simulation._walk(P, start, ScriptedUniforms(uniforms), len(uniforms)))
        assert np.array_equal(got, reference_random_walk(P, start, uniforms.tolist()))


@pytest.mark.parametrize("n, horizon", [(6, 40_000), (40, 1), (40, 16_385), (300, 40_000)])
def test_randomized_walk_matches_the_reference(n, horizon):
    g = random_connected_graph(n, seed=n) if n != 6 else make_complete(6)
    P = random_chain(g, seed=n + 1, hold=n != 40) if n != 6 else chain_from_rows(EDGE_ROWS)
    burn_in = horizon // 3
    stats, trace = simulate_randomized(g, P, horizon, burn_in, seed=7, start=n - 1,
                                       record_trace=True)
    expected = reference_random_walk(P, n - 1, np.random.default_rng(7).random(horizon).tolist())
    got = walked(simulation._walk(P, n - 1, np.random.default_rng(7), horizon))
    assert got.dtype == (np.uint16 if n > 256 else np.uint8)
    assert np.array_equal(got, expected)
    assert np.array_equal(trace.visit_log, expected[:-1])
    assert same(stats, reference_stats(g, expected, horizon, burn_in))


@pytest.mark.parametrize("cap", [None, 1, 5, 64])
def test_age_based_walk_matches_the_reference(monkeypatch, cap):
    if cap is not None:
        monkeypatch.setattr(simulation, "_SCORE_TABLE_SIZE", cap)
    weighted = assign_weights(random_connected_graph(300, seed=3), "random_interval", seed=4)
    # unit weights on a grid and a tree give ties, which go to the lowest index
    for g, horizon in [(generate_grid_diag(5), 20_000), (make_fig_tree(), 16_385),
                       (weighted, 40_000)]:
        burn_in = horizon // 4
        expected = reference_age_based_walk(g, 2, horizon)
        stats, trace = simulate_age_based(g, horizon, burn_in, start=2, record_trace=True)
        assert np.array_equal(walked(simulation._age_based_walk(g, 2, horizon)), expected)
        assert np.array_equal(trace.visit_log, expected[:-1])
        assert same(stats, reference_stats(g, expected, horizon, burn_in))


def test_walk_tables_are_built_once_per_matrix(monkeypatch):
    builds = []
    build = markov._sampling_tables
    monkeypatch.setattr(markov, "_sampling_tables", lambda p: builds.append(p) or build(p))
    g = random_connected_graph(8, seed=5)
    P = random_chain(g, seed=6)
    first = simulate_randomized(g, P, 5000, seed=1)
    assert same(simulate_randomized(g, P, 5000, seed=1), first)
    assert len(builds) == 1
    policy = dissemination.policy_from_design(build_mh(g), rates=np.full(8, 0.01))
    assert same(simulate_dissemination(g, policy, 5000, seed=1),
                simulate_dissemination(g, policy, 5000, seed=1))
    assert len(builds) == 2
    # an equal matrix is another chain object, with tables of its own
    twin = TransitionMatrix(P.p.copy())
    assert same(simulate_randomized(g, twin, 5000, seed=1), first)
    assert len(builds) == 3 and twin.samplers is not P.samplers
