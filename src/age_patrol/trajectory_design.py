"""Randomized trajectory designers.

Two constructions, both with stationary distribution pi* proportional to
sqrt(weight) (which minimizes network peak age):

* ``build_mh`` — Metropolis-Hastings walk over the uniform neighbour
  proposal.  Closed form, reversible, peak-age optimal.
* ``build_fastest_mixing`` — minimizes the spectral norm ||P - Pi*||_2
  over row-stochastic P supported on the edge set plus the diagonal and
  satisfying pi* P = pi*.  Smaller norm means faster mixing and, in
  practice, lower average age.  Solved by projected subgradient descent
  with one step rule, a level-tracking Polyak step: the subgradient of
  the spectral norm is the outer product of the top singular pair, and
  feasibility is restored after every step by Dykstra alternating
  projections between the affine constraint set and the nonnegative cone.  The top pair comes from a block of right Ritz
  vectors carried from one iteration to the next and refined by a few
  subspace-iteration steps; when its residual stays above tolerance the
  exact full SVD answers instead.  Warm-started at the Metropolis chain,
  and the returned objective is an exact SVD value that never exceeds
  the warm start's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import TOL
from .errors import GraphValidationError, SolverError
from .graphs import MobilityGraph
from .markov import JsonRecord, TransitionMatrix, check_irreducible


@dataclass(frozen=True)
class DesignResult(JsonRecord):
    matrix: TransitionMatrix
    target_pi: np.ndarray
    objective: float | None = None  # spectral norm for the solver; None for MH
    iterations: int = 0
    converged: bool = True
    residuals: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SolverOptions:
    """The fastest-mixing solver's one setting; its step rule and tolerances are constants."""

    max_iterations: int = 5000


_PATIENCE = 200             # stop once the best objective stalls this long
_IMPROVEMENT_TOL = 1e-8
_LEVEL_FRACTION = 0.25      # initial level gap as a fraction of the warm-start objective
_LEVEL_SHRINK_EVERY = 50
_LEVEL_FLOOR = 1e-12
_DYKSTRA_MAX_SWEEPS = 1000
_DYKSTRA_TOL = 1e-9
_BLEND_EPSILON = 1e-3       # Metropolis blend used to restore irreducibility


def target_distribution(weights) -> np.ndarray:
    """pi*_i = sqrt(w_i) / sum_j sqrt(w_j)."""
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    root = np.sqrt(w)
    return root / root.sum()


def design_objective(p: np.ndarray, target_pi: np.ndarray) -> float:
    """Spectral norm of P - Pi* with Pi* stacking pi* in every row."""
    return float(np.linalg.svd(p - np.tile(target_pi, (len(target_pi), 1)),
                               compute_uv=False)[0])


def build_mh(g: MobilityGraph) -> DesignResult:
    """Metropolis-Hastings chain targeting pi* over the 1/degree proposal.

    Off-diagonal entry (i, j) of the result is
    (1/d_i) * min(1, pi*_j d_i / (pi*_i d_j)) for every edge (i, j); the
    diagonal absorbs the rejected mass.  Requires a symmetric graph.
    """
    if not g.is_symmetric():
        raise GraphValidationError("Metropolis construction needs a symmetric edge set")
    pi = target_distribution(g.weights)
    n = g.n
    deg = g.out_degree.astype(float)
    p = np.zeros((n, n))
    for i in range(n):
        for j in g.neighbors[i]:
            accept = min(1.0, (pi[j] * deg[i]) / (pi[i] * deg[j]))
            p[i, j] = accept / deg[i]
        p[i, i] = max(0.0, 1.0 - p[i].sum())
    # exact row normalization guards against accumulated rounding
    p /= p.sum(axis=1, keepdims=True)
    matrix = TransitionMatrix(p)
    return DesignResult(
        matrix=matrix,
        target_pi=pi,
        residuals=_design_residuals(matrix, g, pi),
    )


class _FeasibleSet:
    """Projections onto the solver's constraint sets.

    Free variables are the entries on the support (edges plus diagonal).
    The affine part couples row sums (= 1) with the stationarity
    equations (pi* P = pi*); its projection uses a precomputed
    pseudo-inverse of the small 2n x 2n normal matrix.  The cone part is
    entrywise nonnegativity.
    """

    def __init__(self, g: MobilityGraph, pi: np.ndarray):
        n = g.n
        pairs = sorted(set(g.edges) | {(i, i) for i in range(n)})
        self.n = n
        self.rows = np.array([i for i, _ in pairs], dtype=int)
        self.cols = np.array([j for _, j in pairs], dtype=int)
        self.pi = pi
        self.pi_rows = pi[self.rows]
        d1 = np.bincount(self.rows, minlength=n).astype(float)
        d2 = np.bincount(self.cols, weights=self.pi_rows ** 2, minlength=n)
        b12 = np.zeros((n, n))
        b12[self.rows, self.cols] = self.pi_rows
        m = np.block([[np.diag(d1), b12], [b12.T, np.diag(d2)]])
        self.m_pinv = np.linalg.pinv(m)
        self.b = np.concatenate([np.ones(n), pi])

    def scatter(self, x: np.ndarray) -> np.ndarray:
        p = np.zeros((self.n, self.n))
        p[self.rows, self.cols] = x
        return p

    def gather(self, p: np.ndarray) -> np.ndarray:
        return p[self.rows, self.cols].copy()

    def constraint_values(self, x: np.ndarray) -> np.ndarray:
        row_sums = np.bincount(self.rows, weights=x, minlength=self.n)
        col_bal = np.bincount(self.cols, weights=self.pi_rows * x, minlength=self.n)
        return np.concatenate([row_sums, col_bal])

    def project_affine(self, x: np.ndarray, gap: np.ndarray) -> np.ndarray:
        """Project x onto the affine set, given gap = constraint_values(x) - b."""
        lam = self.m_pinv @ gap
        return x - (lam[: self.n][self.rows] + self.pi_rows * lam[self.n:][self.cols])

    def dykstra(self, x: np.ndarray, tol: float) -> np.ndarray:
        # one constraint evaluation per sweep: the gap of the sweep's result
        # serves both its residual test and the next sweep's projection
        correction = np.zeros_like(x)
        gap = self.constraint_values(x) - self.b
        for _ in range(_DYKSTRA_MAX_SWEEPS):
            y = self.project_affine(x, gap)
            shifted = y + correction
            x = np.maximum(shifted, 0.0)
            correction = shifted - x
            gap = self.constraint_values(x) - self.b
            if np.max(np.abs(gap)) <= tol:
                return x
        if np.max(np.abs(gap)) <= TOL.feasibility:
            return x
        raise SolverError(
            f"projection failed to reach feasibility within {TOL.feasibility:g} "
            f"after {_DYKSTRA_MAX_SWEEPS} sweeps")


# Top singular pair by warm-started block subspace iteration with
# Rayleigh-Ritz (Saad, Numerical Methods for Large Eigenvalue Problems,
# ch. 5).  The block is wider than one vector because minimising the
# spectral norm drives the top singular value toward multiplicity, where a
# single vector stalls.
_RITZ_BLOCK = 8
_RITZ_STEPS = 4
_RITZ_RTOL = 1e-6


class _TopSingularPair:
    """Top singular triple (u1, v1, s1) of a slowly changing matrix.

    Each call starts from the right Ritz vectors kept from the previous
    call and runs up to ``_RITZ_STEPS`` Rayleigh-Ritz steps: ``W = D V``,
    a thin SVD of ``W`` gives the Ritz pair, which is accepted once
    ``||D^T u1 - s1 v1|| <= _RITZ_RTOL * s1``; otherwise
    ``V <- qr(D^T W)``.  When no step is accepted, and on the first call,
    the exact full SVD answers and seeds the block.
    """

    def __init__(self):
        self.block = None
        self.fallbacks = 0

    def __call__(self, d: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        v = self.block
        if v is not None:
            for step in range(_RITZ_STEPS):
                if step:  # no QR after the last step: the full SVD answers there
                    v, _ = np.linalg.qr(d.T @ w)
                w = d @ v
                uw, sw, zt = np.linalg.svd(w, full_matrices=False)
                u1, s1 = uw[:, 0], float(sw[0])
                ritz = v @ zt.T
                if np.linalg.norm(d.T @ u1 - s1 * ritz[:, 0]) <= _RITZ_RTOL * s1:
                    self.block = ritz
                    return u1, ritz[:, 0], s1
        self.fallbacks += 1
        u, s, vt = np.linalg.svd(d)
        self.block = vt[:_RITZ_BLOCK].T
        return u[:, 0], vt[0], float(s[0])


def build_fastest_mixing(g: MobilityGraph, opts: SolverOptions | None = None) -> DesignResult:
    opts = opts or SolverOptions()
    mh = build_mh(g)
    pi = mh.target_pi
    n = g.n
    pi_star = np.tile(pi, (n, 1))
    feas = _FeasibleSet(g, pi)
    top_pair = _TopSingularPair()

    x = feas.gather(mh.matrix.p)
    f_mh = design_objective(mh.matrix.p, pi)
    best_x = x.copy()
    best_f = f_mh
    best_hist = np.full(opts.max_iterations + 1, f_mh)

    delta = max(_LEVEL_FRACTION * f_mh, 1e-9)
    best_at_checkpoint = best_f
    converged = False
    iterations = 0

    for t in range(1, opts.max_iterations + 1):
        iterations = t
        u1, v1, f = top_pair(feas.scatter(x) - pi_star)
        if f < best_f:
            best_f = f
            best_x = x.copy()
        best_hist[t] = best_f
        if t > _PATIENCE and best_hist[t - _PATIENCE] - best_f < _IMPROVEMENT_TOL:
            converged = True
            break

        grad = u1[feas.rows] * v1[feas.cols]
        # Polyak step toward the level best_f - delta; delta halves when stalled
        gn2 = float(grad @ grad)
        step = (f - (best_f - delta)) / max(gn2, 1e-12)
        step = min(step, 100.0)
        if t % _LEVEL_SHRINK_EVERY == 0:
            if best_at_checkpoint - best_f < delta / 10.0:
                delta = max(delta / 2.0, _LEVEL_FLOOR)
            best_at_checkpoint = best_f
        x = feas.dykstra(x - step * grad, _DYKSTRA_TOL)

    x = feas.dykstra(best_x, 1e-10)  # the returned design is projected more tightly
    p = feas.scatter(np.maximum(x, 0.0))
    p /= p.sum(axis=1, keepdims=True)

    if not check_irreducible(TransitionMatrix(p)):
        # convex blend with the feasible Metropolis chain restores irreducibility
        p = (1.0 - _BLEND_EPSILON) * p + _BLEND_EPSILON * mh.matrix.p

    objective = design_objective(p, pi)
    if objective > f_mh:
        p = mh.matrix.p.copy()
        objective = f_mh

    matrix = TransitionMatrix(p)
    residuals = _design_residuals(matrix, g, pi)
    worst = max(residuals["row_stochastic"], residuals["stationary"],
                residuals["nonnegative"], residuals["support"])
    if worst > TOL.feasibility:
        raise SolverError(f"solver returned infeasible design (worst residual {worst:.3e})")
    return DesignResult(
        matrix=matrix,
        target_pi=pi,
        objective=objective,
        iterations=iterations,
        converged=converged,
        residuals=residuals,
    )


def _design_residuals(matrix: TransitionMatrix, g: MobilityGraph, target_pi: np.ndarray) -> dict:
    p = matrix.p
    violations = matrix.support_violations(g)
    return {
        "row_stochastic": float(np.max(np.abs(p.sum(axis=1) - 1.0))),
        "stationary": float(np.max(np.abs(target_pi @ p - target_pi))),
        "nonnegative": float(max(0.0, -p.min())),
        "support": float(max((p[i, j] for i, j in violations), default=0.0)),
    }


def validate_design(P: TransitionMatrix, g: MobilityGraph, target_pi) -> dict:
    """Per-constraint pass/fail report with residuals."""
    target_pi = np.asarray(target_pi, dtype=float)
    res = _design_residuals(P, g, target_pi)
    violations = P.support_violations(g)
    report = {
        "nonnegative": {"pass": res["nonnegative"] == 0.0, "residual": res["nonnegative"]},
        "row_stochastic": {"pass": res["row_stochastic"] <= TOL.row_sum,
                           "residual": res["row_stochastic"]},
        "stationary": {"pass": res["stationary"] <= TOL.design_pi_residual,
                       "residual": res["stationary"]},
        "support": {"pass": not violations, "violations": violations,
                    "residual": res["support"]},
        "irreducible": {"pass": check_irreducible(P)},
    }
    report["all_pass"] = all(entry["pass"] for entry in report.values())
    return report
