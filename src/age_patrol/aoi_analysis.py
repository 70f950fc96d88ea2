"""Closed-form age metrics and bounds for randomized trajectories.

For a randomized trajectory with stationary distribution pi and
fundamental matrix Z, terminal i has peak age 1/pi_i (mean return time)
and average age z_ii/pi_i.  Network metrics are weight-summed.  Two
universal bounds accompany them:

* lower bound on any trajectory's network average age:
  (1/2) sum_i (w_i/pi*_i + w_i) with pi*_i proportional to sqrt(w_i),
  which evaluates to ((sum sqrt w)^2 + sum w) / 2;
* upper bound for a randomized trajectory via the discrepancy D:
  sum_i (w_i D / pi_i + w_i), valid because z_ii <= D + pi_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .markov import ChainAnalysis, JsonRecord


@dataclass(frozen=True, eq=False)
class AgeReport(JsonRecord):
    per_terminal_peak: np.ndarray
    per_terminal_avg: np.ndarray
    network_peak: float
    network_avg: float
    lower_bound_avg: float
    upper_bound_avg: float
    peak_opt_value: float


def peak_optimal_value(weights) -> float:
    """(sum_i sqrt(w_i))^2, the best achievable network peak age."""
    w = np.asarray(weights, dtype=float)
    return float(np.sqrt(w).sum() ** 2)


def average_age_lower_bound(weights) -> float:
    """((sum sqrt w)^2 + sum w) / 2; holds for every trajectory."""
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    return 0.5 * (peak_optimal_value(w) + float(w.sum()))


def analytic_ages(analysis: ChainAnalysis, weights) -> AgeReport:
    w = np.asarray(weights, dtype=float)
    if w.shape != (analysis.n,):
        raise ValueError("weights length must match the chain dimension")
    per_peak = 1.0 / analysis.pi
    per_avg = analysis.z_diag / analysis.pi
    return AgeReport(
        per_terminal_peak=per_peak,
        per_terminal_avg=per_avg,
        network_peak=float(np.sum(w * per_peak)),
        network_avg=float(np.sum(w * per_avg)),
        lower_bound_avg=average_age_lower_bound(w),
        upper_bound_avg=float(np.sum(w * analysis.discrepancy / analysis.pi + w)),
        peak_opt_value=peak_optimal_value(w),
    )
