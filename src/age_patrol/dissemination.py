"""Information dissemination: queued updates delivered by the patrol agent.

The hub generates updates for terminal i as a Bernoulli(lambda_i)
process; packets wait in a per-terminal FCFS queue carried by the agent
and the head-of-line packet is delivered when the agent visits.  Ages
now reset to the delivered packet's age instead of to 1.

Analytics come from a discrete-time single-server queue with server
vacations: arrivals Bernoulli(lambda), general service S, and the server
taking i.i.d. vacations V whenever the queue empties.  Its exact peak
age is

    1/lambda + E[S] + (lambda E[S^2] - rho) / (2 (1 - rho))
             + E[V^2] / (2 E[V]) - 1/2,        rho = lambda E[S],

and average age never exceeds peak age.  Substituting the walk's
return-time moments for both S and V yields a per-terminal upper bound
on dissemination age for any randomized trajectory, minimized at
utilization rho_i = 1 / (1 + sqrt(z_ii - pi_i)) — the rate rule used by
the separation policy on top of the fastest-mixing trajectory.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, QueueBacklogWarning, StabilityError
from .graphs import MobilityGraph
from .markov import ChainAnalysis, JsonRecord, TransitionMatrix, analyze
from .simulation import AgeStats, _check_window, _Recorder, _row_samplers, _sampler
from .trajectory_design import DesignResult, build_fastest_mixing

EVENT_LOG_HORIZON_LIMIT = 100_000
EVENT_CSV_FIELDS = ["t", "event", "terminal", "generated"]
# a queue backlog above this many packets triggers one QueueBacklogWarning per run
QUEUE_WARNING_THRESHOLD = 1_000_000


@dataclass(frozen=True)
class DiscreteLaw:
    """Finite discrete distribution on positive integer slot counts."""

    values: tuple
    probs: tuple

    def __post_init__(self):
        values = tuple(int(v) for v in self.values)
        probs = tuple(float(p) for p in self.probs)
        if len(values) != len(probs) or not values:
            raise ValueError("values and probs must be nonempty and equal length")
        if any(v < 1 for v in values):
            raise ValueError("slot counts must be >= 1")
        if any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError("probs must be nonnegative and sum to 1")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)

    @staticmethod
    def deterministic(value: int) -> "DiscreteLaw":
        return DiscreteLaw((value,), (1.0,))

    @staticmethod
    def uniform(values) -> "DiscreteLaw":
        values = tuple(values)
        return DiscreteLaw(values, (1.0 / len(values),) * len(values))

    def mean(self) -> float:
        return sum(v * p for v, p in zip(self.values, self.probs))

    def second_moment(self) -> float:
        return sum(v * v * p for v, p in zip(self.values, self.probs))

    def cumulative(self) -> list:
        out = []
        acc = 0.0
        for p in self.probs:
            acc += p
            out.append(acc)
        out[-1] = 1.0
        return out


@dataclass(frozen=True)
class QueueModelParams:
    """Moments describing one Bernoulli-arrival vacation queue."""

    lam: float
    service_mean: float
    service_second_moment: float
    vacation_mean: float
    vacation_second_moment: float

    def __post_init__(self):
        if not 0 < self.lam < 1:
            raise ValueError("arrival probability must lie in (0, 1)")
        if self.service_mean < 1 or self.vacation_mean < 1:
            raise ValueError("service and vacation means must be >= 1 slot")
        if self.service_second_moment < self.service_mean ** 2 - 1e-12:
            raise ValueError("service second moment below squared mean")
        if self.vacation_second_moment < self.vacation_mean ** 2 - 1e-12:
            raise ValueError("vacation second moment below squared mean")
        if self.rho >= 1:
            raise StabilityError(f"utilization rho = {self.rho:.4f} >= 1; queue unstable")

    @property
    def rho(self) -> float:
        return self.lam * self.service_mean

    @staticmethod
    def from_laws(lam: float, service: DiscreteLaw, vacation: DiscreteLaw) -> "QueueModelParams":
        return QueueModelParams(lam, service.mean(), service.second_moment(),
                                vacation.mean(), vacation.second_moment())


def berg1_vacation_system_time(p: QueueModelParams) -> float:
    """Expected slots a packet spends in the queue plus in service."""
    rho = p.rho
    return (p.service_mean
            + (p.lam * p.service_second_moment - rho) / (2.0 * (1.0 - rho))
            + p.vacation_second_moment / (2.0 * p.vacation_mean)
            - 0.5)


def berg1_vacation_peak_age(p: QueueModelParams) -> float:
    """Exact peak age of the vacation queue: mean interarrival + system time."""
    return 1.0 / p.lam + berg1_vacation_system_time(p)


@dataclass(frozen=True)
class VacationQueueStats:
    empirical_peak: float
    empirical_avg: float
    n_deliveries: int
    horizon: int
    burn_in: int


def simulate_berg1_vacation(lam: float, service: DiscreteLaw, vacation: DiscreteLaw,
                            horizon: int, burn_in: int | None = None,
                            seed: int = 0) -> VacationQueueStats:
    """Slot-level simulation of the single vacation queue.

    Independent of the analytic formulas: the server works through
    sampled service/vacation durations and the recorder measures the age
    process directly.  A delivery happens in the final slot of a service;
    the server re-checks the queue whenever a service or vacation ends,
    starting the next activity on the following slot.
    """
    if not 0 < lam < 1:
        raise ValueError("arrival probability must lie in (0, 1)")
    burn_in = _check_window(horizon, burn_in)
    rng = np.random.default_rng(seed)
    arrivals = (np.flatnonzero(rng.random(horizon) < lam) + 1).tolist()
    draw = _sampler(rng)
    svc = (service.cumulative(), service.values)
    vac = (vacation.cumulative(), vacation.values)
    rec = _Recorder(1, horizon, burn_in)
    deliver = rec.deliver

    ptr = 0
    n_arr = len(arrivals)
    serving = False
    head_gen = 0
    remaining = draw(vac)
    for t in range(1, horizon + 1):
        remaining -= 1
        if remaining > 0:
            continue
        if serving:
            deliver(0, t, head_gen)
        if ptr < n_arr and arrivals[ptr] <= t:
            head_gen = arrivals[ptr]
            ptr += 1
            serving = True
            remaining = draw(svc)
        else:
            serving = False
            remaining = draw(vac)

    stats = rec.finish(np.ones(1))
    return VacationQueueStats(
        empirical_peak=float(stats.per_terminal_peak[0]),
        empirical_avg=stats.network_avg,
        n_deliveries=int(stats.n_peaks[0]),
        horizon=horizon,
        burn_in=burn_in,
    )


def terminal_age_upper_bound(analysis: ChainAnalysis, i: int, rho_i: float) -> float:
    """Dissemination age bound for terminal i at queue utilization rho_i."""
    if not 0 < rho_i < 1:
        raise ValueError("rho_i must lie in (0, 1)")
    pi_i = float(analysis.pi[i])
    z_ii = float(analysis.z_diag[i])
    return ((1.0 / pi_i) * (1.0 + z_ii + 1.0 / rho_i + z_ii * rho_i / (1.0 - rho_i))
            - rho_i / (1.0 - rho_i) - 1.0)


def optimal_utilization(z_ii: float, pi_i: float) -> float:
    """Utilization minimizing the per-terminal dissemination bound."""
    return 1.0 / (1.0 + math.sqrt(max(z_ii - pi_i, 0.0)))


@dataclass(frozen=True)
class DisseminationPolicy(JsonRecord):
    """A trajectory plus per-terminal update generation rates."""

    matrix: TransitionMatrix
    target_pi: np.ndarray
    rates: np.ndarray
    rho: np.ndarray
    upper_bounds: np.ndarray
    z_diag: np.ndarray
    discrepancy: float
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.matrix.n

    def validate(self) -> None:
        if np.any(self.rates <= 0) or np.any(self.rates >= self.target_pi):
            raise StabilityError("rates must satisfy 0 < lambda_i < pi_i")
        if not np.all(np.isfinite(self.upper_bounds)):
            raise NumericalError("upper bounds must be finite")


def policy_from_design(design: DesignResult, rates=None) -> DisseminationPolicy:
    """Attach rates to an existing trajectory design (default: optimal rates)."""
    analysis = analyze(design.matrix, pi=design.target_pi)
    pi = analysis.pi
    z = analysis.z_diag
    slack = z - pi
    if slack.min() < -1e-10:
        raise NumericalError(
            f"z_ii < pi_i by {-slack.min():.3e}: fundamental matrix looks corrupted")
    if rates is None:
        rho = np.array([optimal_utilization(z[i], pi[i]) for i in range(len(pi))])
        rates = pi * rho
    else:
        rates = np.asarray(rates, dtype=float)
        rho = rates / pi
    bounds = np.array([
        terminal_age_upper_bound(analysis, i, rho[i]) if 0 < rho[i] < 1 else math.inf
        for i in range(len(pi))
    ])
    return DisseminationPolicy(
        matrix=design.matrix,
        target_pi=pi,
        rates=rates,
        rho=rho,
        upper_bounds=bounds,
        z_diag=z,
        discrepancy=analysis.discrepancy,
        meta={"converged": design.converged, "objective": design.objective},
    )


def separation_policy(g: MobilityGraph, design: DesignResult | None = None) -> DisseminationPolicy:
    """Fastest-mixing trajectory plus rates pi_i / (1 + sqrt(z_ii - pi_i)).

    The weights are the graph's (`g.with_weights` overrides them); `design`
    reuses a trajectory already built for g instead of solving again.
    """
    if design is None:
        design = build_fastest_mixing(g)
    policy = policy_from_design(design)
    policy.validate()
    return policy


def simulate_dissemination(g: MobilityGraph, policy: DisseminationPolicy, horizon: int,
                           burn_in: int | None = None, seed: int = 0, start: int = 0,
                           record_events: bool = False):
    """Simulate queued dissemination along the policy's random walk.

    Slot order: arrivals join their queues, then the visited terminal's
    head-of-line packet (if any) is delivered, then the agent moves.  A
    packet arriving at the agent's current terminal in slot t can be
    delivered in slot t if it reaches the head of the queue.  Peaks are
    recorded only at delivery slots.  Returns AgeStats, plus the event
    log [(t, kind, terminal, generated)] when record_events is set.
    """
    n = g.n
    if policy.matrix.n != n or len(policy.rates) != n:
        raise ValueError("policy dimension does not match the graph")
    if np.any(policy.rates < 0) or np.any(policy.rho >= 1):
        raise StabilityError("need 0 <= lambda_i and rho_i < 1 for every terminal")
    burn_in = _check_window(horizon, burn_in)
    if record_events and horizon > EVENT_LOG_HORIZON_LIMIT:
        raise ValueError(f"event logs are limited to horizons <= {EVENT_LOG_HORIZON_LIMIT}")
    if not 0 <= start < n:
        raise ValueError("start terminal out of range")

    rng = np.random.default_rng(seed)
    arrivals = [(np.flatnonzero(rng.random(horizon) < lam) + 1).tolist()
                for lam in policy.rates]
    samplers = _row_samplers(policy.matrix.p)
    draw = _sampler(rng)
    rec = _Recorder(n, horizon, burn_in)
    deliver = rec.deliver

    ptr = [0] * n
    events = [] if record_events else None
    warned = False
    check_mask = (1 << 14) - 1

    cur = start
    for t in range(1, horizon + 1):
        arr = arrivals[cur]
        p = ptr[cur]
        if p < len(arr) and arr[p] <= t:
            gen = arr[p]
            ptr[cur] = p + 1
            deliver(cur, t, gen)
            if record_events:
                events.append((t, "deliver", cur, gen))
        cur = draw(samplers[cur])
        if record_events:
            events.append((t, "move", cur, None))
        if not warned and t & check_mask == 0:
            for i in range(n):
                backlog = bisect_right(arrivals[i], t) - ptr[i]
                if backlog > QUEUE_WARNING_THRESHOLD:
                    warnings.warn(
                        f"queue {i} backlog {backlog} exceeds {QUEUE_WARNING_THRESHOLD} "
                        f"at slot {t}; the system looks unstable",
                        QueueBacklogWarning, stacklevel=2)
                    warned = True
                    break

    stats = rec.finish(g.weights)
    if record_events:
        for i, arr in enumerate(arrivals):
            events.extend((a, "arrive", i, a) for a in arr)
        events.sort(key=lambda e: (e[0], {"arrive": 0, "deliver": 1, "move": 2}[e[1]]))
        return stats, events
    return stats


_MARGIN = 1.02  # Monte-Carlo slack on the hard dissemination checks


def dissemination_report(policy: DisseminationPolicy, stats: AgeStats, weights) -> dict:
    """Measured-versus-bound report for a completed dissemination run.

    Hard pass/fail: per-terminal empirical peak within the analytic upper
    bound, and empirical average within empirical peak (both with a 2%
    margin).  The mixing-time shapes are reported with discrepancy/4 as a
    stand-in proxy and carry no pass/fail.
    """
    w = np.asarray(weights, dtype=float)
    per_terminal = []
    peak_ok = True
    avg_ok = True
    for i in range(policy.n):
        emp_peak = float(stats.per_terminal_peak[i])
        emp_avg = float(stats.per_terminal_avg[i])
        bound = float(policy.upper_bounds[i])
        ok_peak = bool(emp_peak <= bound * _MARGIN)
        ok_avg = bool(emp_avg <= emp_peak * _MARGIN)
        peak_ok &= ok_peak
        avg_ok &= ok_avg
        per_terminal.append({
            "terminal": i,
            "rate": float(policy.rates[i]),
            "rho": float(policy.rho[i]),
            "empirical_peak": emp_peak,
            "upper_bound": bound,
            "peak_within_bound": ok_peak,
            "empirical_avg": emp_avg,
            "avg_within_peak": ok_avg,
        })
    gathering_opt_peak = float(np.sum(w / policy.target_pi))
    h_proxy = policy.discrepancy / 4.0
    report = {
        "per_terminal": per_terminal,
        "network": {
            "empirical_peak": stats.network_peak,
            "empirical_avg": stats.network_avg,
            "gathering_optimal_peak": gathering_opt_peak,
            "peak_ratio": stats.network_peak / gathering_opt_peak,
            "avg_ratio": stats.network_avg / gathering_opt_peak,
        },
        "mixing_proxy": {
            "note": ("mixing time is not computed; discrepancy/4 is a lower proxy "
                     "and the bound shapes below are informational only"),
            "h_proxy": h_proxy,
            "peak_bound_shape": 4.0 * h_proxy + 4.0 * math.sqrt(h_proxy) + 2.0,
            "avg_bound_shape": 8.0 * h_proxy + 8.0 * math.sqrt(h_proxy) + 4.0,
        },
        "hard_checks": {
            "peak_bounds_pass": bool(peak_ok),
            "avg_within_peak_pass": bool(avg_ok),
            "margin": _MARGIN,
        },
    }
    return report
