"""Oracle checks on the package's outputs.

Each check returns a list of problems; an empty list means the output
passed.  The closed forms of the paper are the oracles: the peak-age
identity, the universal lower bound and the discrepancy upper bound on
the average age, ``z_ii / pi_i`` for a randomized walk, the exact peak
age of the vacation queue and the per-terminal peak-age upper bound of
the dissemination policy.  Simulated values are compared through
batch-means confidence intervals.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from age_patrol.aoi_analysis import peak_optimal_value
from age_patrol.constants import TOL
from age_patrol.dissemination import dissemination_report
from age_patrol.trajectory_design import validate_design

# batch-means intervals over 8 batches at a family-wise 99.99% level, wide
# enough that a correct simulator fails about once in 10^4 checks
BATCHES = 8
FAMILY_ALPHA = 1e-4


def t_cdf(t: float, df: int) -> float:
    """Student-t distribution function for a whole number of degrees of freedom.

    The closed form of Abramowitz and Stegun 26.7.3-4; written out so that the
    benchmark process does not load scipy.stats, which would add to its peak RSS.
    """
    theta = math.atan(t / math.sqrt(df))
    s, c = math.sin(theta), math.cos(theta)
    term, series = 1.0, 1.0
    if df % 2:
        for k in range(1, (df - 1) // 2):
            term *= c * c * (2 * k) / (2 * k + 1)
            series += term
        return 0.5 + (theta + (s * c * series if df > 1 else 0.0)) / math.pi
    for k in range(1, df // 2):
        term *= c * c * (2 * k - 1) / (2 * k)
        series += term
    return 0.5 + s * series / 2


def t_quantile(tests: int = 1) -> float:
    """Two-sided Student-t quantile at FAMILY_ALPHA shared out over `tests` intervals."""
    p, df = 1 - FAMILY_ALPHA / (2 * tests), BATCHES - 1
    lo, hi = 0.0, 1.0
    while t_cdf(hi, df) < p:
        lo, hi = hi, 2 * hi
    for _ in range(100):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if t_cdf(mid, df) < p else (lo, mid)
    return hi

FIGURE_POLICIES = {
    "fig4": ("geometric", {"mh", "fastest_mixing", "age_based"}),
    "fig5": ("geometric", {"mh", "fastest_mixing", "age_based", "lower_bound"}),
    "fig6": ("grid", {"mh", "fastest_mixing", "age_based", "lower_bound"}),
    "fig7": ("ring", {"mh", "fastest_mixing", "age_based", "lower_bound"}),
    "fig8": ("geometric", {"fastest_mixing", "separation"}),
}


def check_design(design, g) -> list:
    """The designed chain passes validate_design and the peak-age identity."""
    problems = []
    report = validate_design(design.matrix, g, design.target_pi)
    if not report["all_pass"]:
        failed = sorted(k for k, v in report.items() if k != "all_pass" and not v["pass"])
        problems.append(f"validate_design failed: {failed}")
    w = np.asarray(g.weights, dtype=float)
    lhs = float(np.sum(w / design.target_pi))
    rhs = peak_optimal_value(w)
    # TOL.peak_identity is absolute at the unit scale of the package's tests
    if not abs(lhs - rhs) <= TOL.peak_identity * max(1.0, rhs):
        problems.append(f"peak identity: sum w/pi* = {lhs!r} != (sum sqrt w)^2 = {rhs!r}")
    return problems


def check_ages(analysis, report) -> list:
    """lower bound <= analytic average <= upper bound, and the chain analysis validates."""
    problems = []
    try:
        analysis.validate()
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        problems.append(f"ChainAnalysis.validate: {exc}")
    if not report.lower_bound_avg <= report.network_avg <= report.upper_bound_avg:
        problems.append(f"bounds: {report.lower_bound_avg!r} <= {report.network_avg!r} "
                        f"<= {report.upper_bound_avg!r} does not hold")
    return problems


def batch_interval(samples, tests: int = 1) -> tuple:
    """(mean, half width) of the batch-means confidence interval.

    `samples` holds one row per batch; with several columns, each column
    gets its own interval and the quantile covers all of them together.
    """
    x = np.asarray(samples, dtype=float)
    if len(x) != BATCHES:
        raise ValueError(f"expected {BATCHES} batches, got {len(x)}")
    return x.mean(axis=0), t_quantile(tests) * x.std(axis=0, ddof=1) / math.sqrt(len(x))


def check_interval(samples, expected: float, label: str) -> list:
    """The analytic value lies inside the batch-means confidence interval."""
    mean, half = map(float, batch_interval(samples))
    if not abs(mean - expected) <= half:
        return [f"{label}: simulated {mean!r} +- {half!r} excludes analytic {expected!r}"]
    return []


def check_lower_bound(simulated_avg: float, lower_bound: float, label: str) -> list:
    """No trajectory beats the universal lower bound on the average age."""
    if not simulated_avg >= lower_bound:
        return [f"{label}: average age {simulated_avg!r} below lower bound {lower_bound!r}"]
    return []


def check_dissemination(policy, batches, weights) -> list:
    """The properties dissemination_report checks, tested on batch means.

    Per batch run, each terminal's mean peak age stays within its analytic
    upper bound and its average age within its peak age, and the network
    peak within the weighted bounds.  A property fails only when the
    batch-means interval lies wholly on the wrong side; the per-terminal
    intervals share the family-wise level among the terminals.
    """
    w = np.asarray(weights, dtype=float)
    peaks = np.array([b.per_terminal_peak for b in batches])
    avgs = np.array([b.per_terminal_avg for b in batches])
    if np.isnan(peaks).any():
        return ["dissemination: a terminal was never visited in a batch"]
    bounds = np.asarray(policy.upper_bounds, dtype=float)
    problems = []
    mean, half = map(float, batch_interval(peaks @ w))
    if mean - half > float(w @ bounds):
        problems.append(f"dissemination network peak {mean!r} +- {half!r} above the "
                        f"weighted bounds {float(w @ bounds)!r}")
    mean, half = batch_interval(peaks, tests=len(w))
    for i in np.flatnonzero(mean - half > bounds):
        problems.append(f"dissemination terminal {i}: peak {float(mean[i])!r} +- "
                        f"{float(half[i])!r} above its bound {float(bounds[i])!r}")
    mean, half = batch_interval(avgs - peaks, tests=len(w))
    for i in np.flatnonzero(mean - half > 0):
        problems.append(f"dissemination terminal {i}: average age exceeds peak age by "
                        f"{float(mean[i])!r} +- {float(half[i])!r}")
    return problems


def report_hard_checks(policy, batches, weights) -> list:
    """Hard checks of dissemination_report that fail on the batches pooled into one run.

    The report compares single Monte-Carlo values with a fixed 2% margin, so
    at a horizon of 10^6 slots it fails from noise alone on some seeds.  Its
    verdict is recorded with every pass but is not an oracle of the benchmark.
    """
    counts = sum(b.n_peaks for b in batches)
    peaks = sum(b.per_terminal_peak * b.n_peaks for b in batches) / counts
    avgs = np.mean([b.per_terminal_avg for b in batches], axis=0)
    w = np.asarray(weights, dtype=float)
    pooled = dataclasses.replace(
        batches[0], per_terminal_peak=peaks, per_terminal_avg=avgs, n_peaks=counts,
        network_peak=float(w @ peaks), network_avg=float(w @ avgs),
        horizon=sum(b.horizon for b in batches), burn_in=sum(b.burn_in for b in batches))
    hard = dissemination_report(policy, pooled, weights)["hard_checks"]
    return [k for k in ("peak_bounds_pass", "avg_within_peak_pass") if not hard[k]]


def check_objective(objective: float, slem: float) -> list:
    """||P - Pi*||_2 is at least the spectral radius of P - Pi*, which is the SLEM."""
    if not (math.isfinite(objective) and objective >= slem - 1e-9):
        return [f"design objective {objective!r} below SLEM {slem!r}"]
    return []


def check_sweep_point(family: str, n: int, tables: dict) -> list:
    """Every figure of the point's family has all of its rows for this n."""
    problems = []
    for fig, (fig_family, policies) in FIGURE_POLICIES.items():
        if fig_family != family:
            continue
        present = {row["policy"] for row in tables.get(fig, []) if int(row["n"]) == n}
        if not policies <= present:
            problems.append(f"{fig}.csv lacks {sorted(policies - present)} for {family} n={n}")
    return problems
