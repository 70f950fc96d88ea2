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

import csv
import io
from dataclasses import dataclass

import numpy as np

from .markov import ChainAnalysis, JsonRecord


@dataclass(frozen=True)
class AgeReport(JsonRecord):
    per_terminal_peak: np.ndarray
    per_terminal_avg: np.ndarray
    network_peak: float
    network_avg: float
    lower_bound_avg: float
    upper_bound_avg: float
    peak_opt_value: float

    @property
    def n(self) -> int:
        return len(self.per_terminal_peak)

    def to_csv_row(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow([self.n, self.network_peak, self.network_avg,
                         self.lower_bound_avg, self.upper_bound_avg, self.peak_opt_value])
        return buf.getvalue().strip("\r\n")


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


def average_age_upper_bound(analysis: ChainAnalysis, weights) -> float:
    """sum_i (w_i * discrepancy / pi_i + w_i) for this chain."""
    w = np.asarray(weights, dtype=float)
    return float(np.sum(w * analysis.discrepancy / analysis.pi + w))


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
        upper_bound_avg=average_age_upper_bound(analysis, w),
        peak_opt_value=peak_optimal_value(w),
    )


def factor_report(report: AgeReport, *, measured_network_avg: float | None = None,
                  measured_network_peak: float | None = None) -> dict:
    """Ratios of achieved ages to their respective optimality baselines.

    Analytic values from the report are used unless measured values (from
    a simulation of an empirical policy) are supplied.
    """
    avg = report.network_avg if measured_network_avg is None else measured_network_avg
    peak = report.network_peak if measured_network_peak is None else measured_network_peak
    return {
        "avg_over_lower_bound": avg / report.lower_bound_avg,
        "peak_over_optimal": peak / report.peak_opt_value,
        "avg_within_upper_bound": avg <= report.upper_bound_avg,
    }
