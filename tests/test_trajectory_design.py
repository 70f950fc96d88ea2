import json

import numpy as np
import pytest

from age_patrol import (SolverOptions, SolverError, TOL, TransitionMatrix, assign_weights,
                        build_fastest_mixing, build_mh, check_irreducible, design_objective,
                        generate_grid_diag, generate_random_geometric, generate_ring_k,
                        stationary_distribution, target_distribution, validate_design)
from age_patrol import trajectory_design
from age_patrol.trajectory_design import (_DYKSTRA_MAX_SWEEPS, _LEVEL_FRACTION, _RITZ_RTOL,
                                          _FeasibleSet, _TopSingularPair)
from conftest import make_complete, make_star


def test_target_distribution_uniform():
    assert np.allclose(target_distribution([1, 1, 1, 1]), 0.25)


def test_target_distribution_one_four():
    assert np.allclose(target_distribution([1.0, 4.0]), [1.0 / 3.0, 2.0 / 3.0])


def test_target_distribution_one_two_two():
    # oracle: (1, sqrt2, sqrt2) / (1 + 2 sqrt2)
    s = 1.0 + 2.0 * np.sqrt(2.0)
    assert np.allclose(target_distribution([1.0, 2.0, 2.0]),
                       [1.0 / s, np.sqrt(2.0) / s, np.sqrt(2.0) / s], atol=1e-15)


def test_target_distribution_rejects_nonpositive():
    with pytest.raises(ValueError):
        target_distribution([1.0, 0.0])


def test_mh_triangle_uniform(triangle):
    design = build_mh(triangle)
    expected = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
    assert np.allclose(design.matrix.p, expected, atol=1e-15)


def test_mh_k2_weighted(k2):
    design = build_mh(k2.with_weights([1.0, 4.0]))
    assert np.allclose(design.matrix.p, [[0.0, 1.0], [0.5, 0.5]], atol=1e-15)
    pi = stationary_distribution(design.matrix)
    assert np.allclose(pi, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)


def test_mh_star_detailed_balance():
    g = make_star(3)
    design = build_mh(g)
    pi = design.target_pi
    p = design.matrix.p
    # oracle: reversibility pi_i P_ij == pi_j P_ji on every edge
    for i, j in g.edges:
        assert abs(pi[i] * p[i, j] - pi[j] * p[j, i]) < TOL.detailed_balance
    assert check_irreducible(design.matrix)
    # hub redistributes: hub->leaf probability is 1/3, leaf->hub acceptance is 1/3
    assert p[0, 1] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert p[1, 0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert p[1, 1] == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_mh_detailed_balance_random_weights():
    rng = np.random.default_rng(5)
    g = generate_ring_k(9, 2).with_weights(rng.uniform(1.0, 2.0, size=9))
    design = build_mh(g)
    pi = design.target_pi
    p = design.matrix.p
    for i, j in g.edges:
        assert abs(pi[i] * p[i, j] - pi[j] * p[j, i]) < TOL.detailed_balance


def test_peak_identity_at_target():
    rng = np.random.default_rng(11)
    w = rng.uniform(1.0, 2.0, size=40)
    pi = target_distribution(w)
    assert np.sum(w / pi) == pytest.approx(np.sqrt(w).sum() ** 2, abs=TOL.peak_identity)


def test_fastest_mixing_k2_uniform_reaches_zero(k2):
    # oracle: sweep the feasible family [[a, 1-a], [1-a, a]]
    grid = np.linspace(0.0, 1.0, 2001)
    pi = np.array([0.5, 0.5])
    best = min(grid, key=lambda a: design_objective(
        np.array([[a, 1.0 - a], [1.0 - a, a]]), pi))
    assert best == pytest.approx(0.5, abs=1e-3)
    design = build_fastest_mixing(k2)
    assert design.objective <= 1e-6
    assert np.allclose(design.matrix.p, 0.5, atol=1e-5)


def test_fastest_mixing_complete_graphs_reach_zero():
    for n in (3, 5, 8):
        design = build_fastest_mixing(make_complete(n))
        assert design.objective <= 1e-6
        assert design.converged


def test_fastest_mixing_ring8_matches_circulant_oracle():
    g = generate_ring_k(8, 1)
    design = build_fastest_mixing(g)
    # oracle: symmetric circulants c0 I + c1 (S + S^T), c0 = 1 - 2 c1, have
    # eigenvalues 1 - 2 c1 (1 - cos(2 pi k / 8)); grid-search c1
    c1 = np.linspace(0.0, 0.5, 500_001)
    theta = 2.0 * np.pi * np.arange(1, 8) / 8.0
    objective = np.abs(1.0 - 2.0 * c1[:, None] * (1.0 - np.cos(theta)[None, :])).max(axis=1)
    oracle = objective.min()
    assert design.objective == pytest.approx(oracle, abs=1e-4)
    mh_objective = design_objective(build_mh(g).matrix.p, design.target_pi)
    assert design.objective <= mh_objective


def test_fastest_mixing_objective_never_worse_than_warm_start():
    rng = np.random.default_rng(17)
    g = generate_ring_k(12, 2).with_weights(rng.uniform(1.0, 2.0, size=12))
    design = build_fastest_mixing(g, SolverOptions(max_iterations=300))
    mh_objective = design_objective(build_mh(g).matrix.p, design.target_pi)
    assert design.objective <= mh_objective + 1e-12


def test_solver_options_reject_a_negative_iteration_count():
    # numpy used to reject it deep in the solver ("negative dimensions are not allowed")
    with pytest.raises(ValueError, match="max_iterations"):
        SolverOptions(max_iterations=-1)
    assert build_fastest_mixing(make_complete(3), SolverOptions(max_iterations=0)).iterations == 0


def test_fastest_mixing_feasibility_residuals():
    rng = np.random.default_rng(23)
    g = generate_ring_k(10, 3).with_weights(rng.uniform(1.0, 2.0, size=10))
    design = build_fastest_mixing(g)
    assert max(design.residuals.values()) <= TOL.feasibility
    assert check_irreducible(design.matrix)
    pi = design.target_pi
    assert np.max(np.abs(pi @ design.matrix.p - pi)) <= TOL.design_pi_residual


def test_fastest_mixing_is_deterministic():
    g = generate_ring_k(7, 2)
    a = build_fastest_mixing(g)
    b = build_fastest_mixing(g)
    assert np.array_equal(a.matrix.p, b.matrix.p)
    assert a.objective == b.objective
    assert a.iterations == b.iterations


def test_validate_design_passes_for_mh(triangle):
    design = build_mh(triangle)
    report = validate_design(design.matrix, triangle, design.target_pi)
    assert report["all_pass"]


def test_validate_design_identity_fails_irreducibility(triangle):
    report = validate_design(TransitionMatrix(np.eye(3)), triangle,
                             np.full(3, 1.0 / 3.0))
    assert not report["irreducible"]["pass"]
    assert not report["all_pass"]


def test_validate_design_flags_non_edge(k2):
    g3 = make_star(2)  # path 1-0-2: edge (1,2) missing
    p = TransitionMatrix(np.full((3, 3), 1.0 / 3.0))
    report = validate_design(p, g3, np.full(3, 1.0 / 3.0))
    assert not report["support"]["pass"]
    assert (1, 2) in report["support"]["violations"]


def _reference_mh(g):
    """build_mh as first written: one Python step per edge, then per row."""
    pi = target_distribution(g.weights)
    deg = g.out_degree.astype(float)
    p = np.zeros((g.n, g.n))
    for i in range(g.n):
        for j in g.neighbors[i]:
            p[i, j] = min(1.0, (pi[j] * deg[i]) / (pi[i] * deg[j])) / deg[i]
        p[i, i] = max(0.0, 1.0 - p[i].sum())
    p /= p.sum(axis=1, keepdims=True)
    return p


@pytest.mark.parametrize("g", [
    assign_weights(generate_random_geometric(200, 2.0 / np.sqrt(200), seed=3),
                   "random_interval", seed=4),
    assign_weights(generate_grid_diag(9), "random_interval", seed=5),
    assign_weights(generate_ring_k(40, 3), "random_interval", seed=6),
    make_star(5),
], ids=["geometric", "grid", "ring", "star"])
def test_mh_matches_per_edge_reference_loop(g):
    assert build_mh(g).matrix.p.tobytes() == _reference_mh(g).tobytes()


def test_support_violations_match_has_edge_reference():
    def reference(P, g):
        return [(int(i), int(j)) for i, j in zip(*np.nonzero(P.p > 0))
                if i != j and not g.has_edge(int(i), int(j))]

    rng = np.random.default_rng(3)
    p = rng.random((12, 12)) * (rng.random((12, 12)) < 0.5)
    p[:, 0] += 0.1  # no empty row
    P = TransitionMatrix(p / p.sum(axis=1, keepdims=True))
    # a graph on as many terminals as P, and one on more
    for g in (generate_ring_k(12, 2), generate_ring_k(15, 1)):
        assert reference(P, g)
        assert P.support_violations(g) == reference(P, g)


def test_validate_design_checks_the_support_once(triangle, monkeypatch):
    calls = []
    original = TransitionMatrix.support_violations
    monkeypatch.setattr(TransitionMatrix, "support_violations",
                        lambda self, g: calls.append(g) or original(self, g))
    design = build_mh(triangle)
    calls.clear()
    validate_design(design.matrix, triangle, design.target_pi)
    assert len(calls) == 1


def test_design_json_round_trip(triangle):
    from age_patrol import DesignResult
    design = build_mh(triangle)
    clone = DesignResult.from_json(design.to_json())
    assert np.allclose(clone.matrix.p, design.matrix.p)
    assert np.allclose(clone.target_pi, design.target_pi)


def test_reading_the_analysis_leaves_the_json_unchanged(triangle):
    design = build_mh(triangle)
    before = json.dumps(design.to_json(), sort_keys=True)
    assert np.allclose(design.analysis.pi, design.target_pi)
    assert "analysis" in vars(design)  # cached on the instance
    assert json.dumps(design.to_json(), sort_keys=True) == before

def _reference_dykstra(feas, x, tol, max_sweeps):
    """Dykstra as first written: the projection and the residual test each
    evaluate the constraints, so every sweep evaluates them twice."""
    def residual(v):
        return float(np.max(np.abs(feas.constraint_values(v) - feas.b)))

    correction = np.zeros_like(x)
    for _ in range(max_sweeps):
        y = feas.project_affine(x, feas.constraint_values(x) - feas.b)
        shifted = y + correction
        x = np.maximum(shifted, 0.0)
        correction = shifted - x
        if residual(x) <= tol:
            return x
    if residual(x) <= TOL.feasibility:
        return x
    raise SolverError("reference projection failed")


@pytest.mark.parametrize("g", [
    assign_weights(generate_random_geometric(30, 2.0 / np.sqrt(30), seed=4),
                   "random_interval", seed=5),
    assign_weights(generate_grid_diag(5), "random_interval", seed=6),
    assign_weights(generate_ring_k(21, 3), "random_interval", seed=7),
], ids=["geometric", "grid", "ring"])
def test_dykstra_matches_two_evaluation_reference(g):
    mh = build_mh(g)
    feas = _FeasibleSet(g, mh.target_pi)
    x0 = feas.gather(mh.matrix.p)
    rng = np.random.default_rng(9)
    points = [x0 - scale * rng.standard_normal(x0.shape) for scale in (1e-3, 1e-2, 1e-1)]
    # the solver's first step: a Polyak step along the subgradient of the top pair
    u1, v1, f = _TopSingularPair()(mh.matrix.p - mh.target_pi)
    grad = u1[feas.rows] * v1[feas.cols]
    points.append(x0 - min(_LEVEL_FRACTION * f / float(grad @ grad), 100.0) * grad)
    assert points[-1].min() < 0  # the step leaves the cone, so the projection has work
    for x in points:
        for tol in (1e-9, 1e-10):
            got = feas.dykstra(x, tol)
            want = _reference_dykstra(feas, x, tol, _DYKSTRA_MAX_SWEEPS)
            assert np.array_equal(got, want)


def test_dykstra_exits_after_its_last_sweep(monkeypatch):
    g = assign_weights(generate_grid_diag(5), "random_interval", seed=6)
    mh = build_mh(g)
    feas = _FeasibleSet(g, mh.target_pi)
    x0 = feas.gather(mh.matrix.p)
    rng = np.random.default_rng(10)
    monkeypatch.setattr(trajectory_design, "_DYKSTRA_MAX_SWEEPS", 2)
    # tol = 0 is never met, so both exits follow the last sweep: a gap within
    # TOL.feasibility returns the iterate ...
    near = x0 - 1e-9 * rng.standard_normal(x0.shape)
    x = feas.dykstra(near, 0.0)
    assert 0.0 < np.abs(feas.constraint_values(x) - feas.b).max() <= TOL.feasibility
    assert np.array_equal(x, _reference_dykstra(feas, near, 0.0, 2))
    # ... and a wider one raises
    far = x0 - 1e-1 * rng.standard_normal(x0.shape)
    with pytest.raises(SolverError, match="after 2 sweeps"):
        feas.dykstra(far, 0.0)


def _top_pair_residual(d, u1, v1, s1):
    return np.linalg.norm(d.T @ u1 - s1 * v1)


def test_top_pair_matches_full_svd_on_random_matrices():
    rng = np.random.default_rng(31)
    for n in (5, 20, 60):
        top_pair = _TopSingularPair()
        d = rng.standard_normal((n, n))
        for _ in range(5):
            d = d + 1e-5 * rng.standard_normal((n, n))
            u1, v1, s1 = top_pair(d)
            exact = np.linalg.svd(d, compute_uv=False)[0]
            assert s1 == pytest.approx(exact, rel=1e-10)
            assert _top_pair_residual(d, u1, v1, s1) <= _RITZ_RTOL * s1
            assert np.linalg.norm(d @ v1 - s1 * u1) <= _RITZ_RTOL * s1
        # only the cold start needed the full SVD
        assert top_pair.fallbacks == 1


def test_top_pair_on_ring_circulant_with_repeated_top_value():
    # odd ring: eigenvalues cos(2 pi j / 13), top modulus at j = 6 and 7
    g = generate_ring_k(13, 1)
    mh = build_mh(g)
    d = mh.matrix.p - np.tile(mh.target_pi, (g.n, 1))
    exact = np.linalg.svd(d, compute_uv=False)
    assert exact[0] - exact[1] <= 1e-12    # the top value repeats
    top_pair = _TopSingularPair()
    top_pair(d + 1e-5 * np.random.default_rng(37).standard_normal(d.shape))
    u1, v1, s1 = top_pair(d)
    assert top_pair.fallbacks == 1
    assert s1 == pytest.approx(exact[0], rel=1e-10)
    assert _top_pair_residual(d, u1, v1, s1) <= _RITZ_RTOL * s1


def test_top_pair_falls_back_to_exact_svd():
    rng = np.random.default_rng(41)
    n = 40
    top_pair = _TopSingularPair()
    d = rng.standard_normal((n, n))
    u, s, vt = np.linalg.svd(d)
    # the cold start is answered by the full SVD itself
    u1, v1, s1 = top_pair(d)
    assert top_pair.fallbacks == 1
    assert np.array_equal(u1, u[:, 0]) and np.array_equal(v1, vt[0]) and s1 == s[0]
    # a nearly flat spectrum with fresh singular vectors: the warm block
    # cannot converge in a few steps, so the exact SVD answers again
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    flat = (q1 * np.linspace(1.0, 0.99, n)) @ q2.T
    u, s, vt = np.linalg.svd(flat)
    u1, v1, s1 = top_pair(flat)
    assert top_pair.fallbacks == 2
    assert np.array_equal(u1, u[:, 0]) and np.array_equal(v1, vt[0]) and s1 == s[0]


def _rotated(q, rng, eps):
    """q turned by an orthogonal matrix within about ``eps`` of the identity."""
    a = eps * rng.standard_normal(q.shape)
    return np.linalg.qr(np.eye(len(q)) + a - a.T)[0] @ q


def test_top_pair_filter_resolves_a_near_double_top_value():
    # s2/s1 = 1 - 1e-4 and s3/s1 = 0.85: plain subspace steps shrink the
    # block's error by only about (s9/s1)^2 per step, so without the
    # Chebyshev filter the warm block falls back to the full SVD
    rng = np.random.default_rng(43)
    n = 40
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.concatenate([[1.0, 1.0 - 1e-4], 0.85 * np.linspace(1.0, 0.5, n - 2)])
    d = (q1 * s) @ q2.T
    top_pair = _TopSingularPair()
    top_pair((_rotated(q1, rng, 1e-2) * s) @ _rotated(q2, rng, 1e-2).T)
    u1, v1, s1 = top_pair(d)
    assert top_pair.fallbacks == 1
    u, sv, vt = np.linalg.svd(d)
    assert s1 == pytest.approx(sv[0], rel=1e-10)
    assert _top_pair_residual(d, u1, v1, s1) <= _RITZ_RTOL * s1
    assert np.linalg.norm(d @ v1 - s1 * u1) <= _RITZ_RTOL * s1


def test_top_pair_skips_the_filter_when_the_block_spans_the_space(monkeypatch):
    # n <= 8: the block spans the whole space and D = P - Pi* is singular, so
    # the smallest Ritz value is zero up to rounding and there is nothing to damp
    g = generate_ring_k(7, 1)
    mh = build_mh(g)
    d = mh.matrix.p - np.tile(mh.target_pi, (g.n, 1))
    top_pair = _TopSingularPair()
    top_pair(d + 1e-3 * np.random.default_rng(47).standard_normal(d.shape))
    u1, v1, s1 = top_pair(d)        # the plain step is already exact here
    assert top_pair.fallbacks == 1
    assert s1 == pytest.approx(np.linalg.svd(d, compute_uv=False)[0], rel=1e-12)
    assert _top_pair_residual(d, u1, v1, s1) <= _RITZ_RTOL * s1
    # with every Ritz step rejected, the guard must send the call straight to
    # the full SVD instead of dividing by a rounding-level theta_k^2
    qr_calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, *args: qr_calls.append(a) or qr(a, *args))
    monkeypatch.setattr(trajectory_design, "_RITZ_RTOL", 0.0)
    u1, v1, s1 = top_pair(d)
    assert qr_calls == [] and top_pair.fallbacks == 2
    u, s, vt = np.linalg.svd(d)
    assert np.array_equal(u1, u[:, 0]) and np.array_equal(v1, vt[0]) and s1 == s[0]
