"""Information dissemination: queued updates delivered by the patrol agent.

The hub generates updates for terminal i as a Bernoulli(lambda_i)
process; packets wait in a per-terminal FCFS queue carried by the agent
and the head-of-line packet is delivered when the agent visits, so a
terminal's age resets to the delivered packet's age.  The coupled
simulator counts through the gathering simulators' loop
(`simulation._count`), with the queues as its delivery rule.

Both simulators draw an arrival process as its i.i.d. Geometric(lambda)
gaps (`_bernoulli_arrivals`), about lambda * H draws.  The vacation-queue
simulator then steps from one service or vacation end to the next, one
uniform per duration.

Analytics come from a discrete-time single-server queue with server
vacations: arrivals Bernoulli(lambda), general service S, and i.i.d.
vacations V whenever the queue empties.  Its exact peak age
(`berg1_vacation_peak_age`, the tests' oracle for the bound below) is

    1/lambda + E[S] + (lambda E[S^2] - rho) / (2 (1 - rho))
             + E[V^2] / (2 E[V]) - 1/2,        rho = lambda E[S],

and average age never exceeds it.  With the walk's return time T_i as
both S and V, E[T_i] = 1/pi_i and E[T_i^2] = (2 z_ii - pi_i) / pi_i^2
(Kemeny and Snell, Finite Markov Chains, ch. 4), it bounds terminal i's
dissemination age at lambda_i = rho_i pi_i for any randomized trajectory:

    (1/rho_i + 1 + (z_ii - pi_i) / (1 - rho_i)) / pi_i

(`terminal_age_upper_bound`), with z_ii - pi_i clamped to Var T_i >= 0,
that is to >= (1 - pi_i) / 2, as rounding in Z can put a deterministic
return time's variance ulps below 0.  The bound is minimized at
rho_i = 1 / (1 + sqrt(z_ii - pi_i)), the rate rule of the separation
policy on top of the fastest-mixing trajectory.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, QueueBacklogWarning, StabilityError
from .graphs import MobilityGraph
from . import simulation
# analyze is unused here, but perfbench/tracer.py wraps it as a global of this module
from .markov import ChainAnalysis, JsonRecord, TransitionMatrix, _inverse_cdf, analyze  # noqa: F401
from .simulation import AgeStats, _AgeEngine, _check_run, _count, _groups, _walk, check_window
from .trajectory_design import DesignResult, build_fastest_mixing

EVENT_CSV_FIELDS = ["t", "event", "terminal", "generated"]
# the order of a slot's events in the event log
_EVENT_ORDER = {"arrive": 0, "deliver": 1, "move": 2}
# a queue backlog above this many packets triggers one QueueBacklogWarning per run
QUEUE_WARNING_THRESHOLD = 1_000_000


@dataclass(frozen=True)
class DiscreteLaw:
    """Finite discrete distribution on positive integer slot counts."""

    values: tuple
    probs: tuple

    def __post_init__(self):
        if not all(math.isfinite(v) and v == int(v) for v in self.values):
            raise ValueError("slot counts must be finite integers")
        values = tuple(int(v) for v in self.values)
        probs = tuple(float(p) for p in self.probs)
        if len(values) != len(probs) or not values:
            raise ValueError("values and probs must be nonempty and equal length")
        if any(v < 1 for v in values):
            raise ValueError("slot counts must be >= 1")
        # written so that a NaN or infinite probability fails it
        if not (all(p >= 0 for p in probs) and abs(sum(probs) - 1.0) <= 1e-12):
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


@dataclass(frozen=True)
class QueueModelParams:
    """Moments describing one Bernoulli-arrival vacation queue."""

    lam: float
    service_mean: float
    service_second_moment: float
    vacation_mean: float
    vacation_second_moment: float

    def __post_init__(self):
        # written so that NaN and infinite moments fail them; the second-moment tests are
        # relative, as a deterministic time's E[T^2] can come out ulps below E[T]^2
        if not 0 < self.lam < 1:
            raise ValueError("arrival probability must lie in (0, 1)")
        if not (1 <= self.service_mean < math.inf and 1 <= self.vacation_mean < math.inf):
            raise ValueError("service and vacation means must be finite and >= 1 slot")
        if not self.service_mean ** 2 * (1 - 1e-12) <= self.service_second_moment < math.inf:
            raise ValueError("service second moment must be finite and >= squared mean")
        if not self.vacation_mean ** 2 * (1 - 1e-12) <= self.vacation_second_moment < math.inf:
            raise ValueError("vacation second moment must be finite and >= squared mean")
        if self.rho >= 1:
            raise StabilityError(f"utilization rho = {self.rho:.4f} >= 1; queue unstable")

    @property
    def rho(self) -> float:
        return self.lam * self.service_mean

    @staticmethod
    def from_laws(lam: float, service: DiscreteLaw, vacation: DiscreteLaw) -> "QueueModelParams":
        return QueueModelParams(lam, service.mean(), service.second_moment(),
                                vacation.mean(), vacation.second_moment())


def berg1_vacation_peak_age(p: QueueModelParams) -> float:
    """Exact peak age of the vacation queue: mean interarrival + system time."""
    rho = p.rho
    return 1.0 / p.lam + (p.service_mean
                          + (p.lam * p.service_second_moment - rho) / (2.0 * (1.0 - rho))
                          + p.vacation_second_moment / (2.0 * p.vacation_mean)
                          - 0.5)


def _bernoulli_arrivals(rng: np.random.Generator, lam: float, horizon: int) -> np.ndarray:
    """Slots in 1..horizon of a Bernoulli(lam) arrival process, an ascending int64 array.

    The gaps between arrivals are i.i.d. Geometric(lam), so the slots are a
    running sum of geometric draws.  The first chunk is sized to cover the
    horizon with overwhelming probability; another is drawn only while the
    sum is still <= horizon.  Gaps are clipped to horizon + 1 before the sum:
    for a tiny lam numpy returns INT64_MAX, which would wrap the sum.
    """
    if lam == 0:
        return np.zeros(0, dtype=np.int64)
    mean = lam * horizon
    k = int(mean + 6.0 * math.sqrt(mean)) + 16
    chunks = []
    last = 0
    while last <= horizon:
        slots = np.cumsum(np.minimum(rng.geometric(lam, size=k), horizon + 1)) + last
        chunks.append(slots)
        last = int(slots[-1])
    slots = np.concatenate(chunks)
    return slots[:np.searchsorted(slots, horizon, side="right")]


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
    """Simulation of the single vacation queue, one service or vacation at a time.

    Independent of the analytic formulas: the server works through
    sampled service/vacation durations and the age engine measures the age
    process from the deliveries.  A delivery happens in the final slot of a
    service; the server re-checks the queue whenever a service or vacation
    ends, starting the next activity on the following slot, so the loop
    steps from one activity end to the next.  Arrivals are drawn first, as
    geometric gaps (`_bernoulli_arrivals`), then one uniform per duration
    from `rng.random(_WALK_BUFFER)` buffers, as `_walk` draws them.
    """
    if not 0 < lam < 1:
        raise ValueError("arrival probability must lie in (0, 1)")
    burn_in = check_window(horizon, burn_in)
    rng = np.random.default_rng(seed)
    arrivals = _bernoulli_arrivals(rng, lam, horizon).tolist()
    svc = _inverse_cdf(service.probs, service.values)
    vac = _inverse_cdf(vacation.probs, vacation.values)

    slots, generated = [], []   # every delivery's slot and generation slot
    ptr = 0
    n_arr = len(arrivals)
    t = 0        # the slot the current activity ends in; a vacation starts in slot 1
    head = None  # generation slot of the packet in service, None on vacation
    while t <= horizon:
        for u in rng.random(simulation._WALK_BUFFER).tolist():
            if head is not None:
                slots.append(t)
                generated.append(head)
            if ptr < n_arr and arrivals[ptr] <= t:
                head = arrivals[ptr]
                ptr += 1
                cum, vals = svc
            else:
                head = None
                cum, vals = vac
            t += vals[bisect_right(cum, u)]
            if t > horizon:
                break

    engine = _AgeEngine(1, horizon, burn_in)
    engine.add(np.zeros(len(slots), dtype=np.uint8), np.array(slots, dtype=np.int64),
               np.array(generated, dtype=np.int64))
    stats = engine.finish(np.ones(1))
    return VacationQueueStats(
        empirical_peak=float(stats.per_terminal_peak[0]),
        empirical_avg=stats.network_avg,
        n_deliveries=int(stats.n_peaks[0]),
        horizon=horizon,
        burn_in=burn_in,
    )


def terminal_age_upper_bound(analysis: ChainAnalysis, i, rho_i):
    """Dissemination age bound of terminal i (an index or an index array) at utilization rho_i."""
    rho_i = np.asarray(rho_i, dtype=float)
    # written so that a NaN utilization fails it
    if not np.all((rho_i > 0) & (rho_i < 1)):
        raise ValueError("rho_i must lie in (0, 1)")
    pi_i = analysis.pi[i]
    # z_ii - pi_i = (pi_i^2 Var T_i + 1 - pi_i) / 2, clamped to Var T_i >= 0
    slack = np.maximum(analysis.z_diag[i] - pi_i, (1.0 - pi_i) / 2.0)
    return (1.0 / rho_i + 1.0 + slack / (1.0 - rho_i)) / pi_i


@dataclass(frozen=True, eq=False)
class DisseminationPolicy(JsonRecord):
    """A trajectory plus per-terminal update generation rates."""

    matrix: TransitionMatrix
    target_pi: np.ndarray
    rates: np.ndarray
    upper_bounds: np.ndarray
    discrepancy: float

    @property
    def rho(self) -> np.ndarray:
        """Queue utilizations lambda_i / pi_i."""
        return self.rates / self.target_pi

    def validate(self) -> "DisseminationPolicy":
        """Return the policy if every rate is stable and every bound finite; raise otherwise."""
        # written so that a NaN rate fails
        if not (np.all(self.rates > 0) and np.all(self.rates < self.target_pi)):
            raise StabilityError("rates must satisfy 0 < lambda_i < pi_i")
        if not np.all(np.isfinite(self.upper_bounds)):
            raise NumericalError("upper bounds must be finite")
        return self


def policy_from_design(design: DesignResult, rates=None) -> DisseminationPolicy:
    """Attach rates to an existing trajectory design (default: optimal rates)."""
    analysis = design.analysis
    pi, slack = analysis.pi, analysis.z_diag - analysis.pi
    if slack.min() < -1e-10:
        raise NumericalError(
            f"z_ii < pi_i by {-slack.min():.3e}: fundamental matrix looks corrupted")
    # pi_i times the utilization that minimizes the bound
    rates = (pi * (1.0 / (1.0 + np.sqrt(np.maximum(slack, 0.0)))) if rates is None
             else np.asarray(rates, dtype=float))
    rho = rates / pi
    stable = np.flatnonzero((rho > 0) & (rho < 1))
    bounds = np.full(len(pi), math.inf)
    bounds[stable] = terminal_age_upper_bound(analysis, stable, rho[stable])
    return DisseminationPolicy(matrix=analysis.matrix, target_pi=pi, rates=rates,
                               upper_bounds=bounds, discrepancy=analysis.discrepancy)


def separation_policy(g: MobilityGraph, design: DesignResult | None = None) -> DisseminationPolicy:
    """Fastest-mixing trajectory plus rates pi_i / (1 + sqrt(z_ii - pi_i)).

    The weights are the graph's (`g.with_weights` overrides them); `design`
    reuses a trajectory already built for g instead of solving again.
    """
    if design is None:
        design = build_fastest_mixing(g)
    return policy_from_design(design).validate()


def simulate_dissemination(g: MobilityGraph, policy: DisseminationPolicy, horizon: int,
                           burn_in: int | None = None, seed: int = 0, start: int = 0,
                           record_events: bool = False):
    """Simulate queued dissemination along the policy's random walk.

    Slot order: arrivals join their queues, then the visited terminal's
    head-of-line packet (if any) is delivered, then the agent moves.  A
    packet arriving at the agent's current terminal in slot t can be
    delivered in slot t if it reaches the head of the queue.  Peaks are
    recorded only at delivery slots.  Returns AgeStats, plus the event
    log [(t, kind, terminal, generated)] when record_events is set
    (horizon capped at TRACE_HORIZON_LIMIT).

    Each terminal's arrivals are drawn as geometric gaps
    (`_bernoulli_arrivals`), in terminal order, before the walk's
    uniforms.  The walk never looks at the queues, so it runs first and
    counts through gathering's loop with `_Queues.serve` as delivery rule.
    """
    burn_in = _check_run(g, policy.matrix, horizon, burn_in, start, record_events)
    if len(policy.rates) != g.n:
        raise ValueError("policy dimension does not match the graph")
    # written so that a NaN rate or utilization fails
    if not (np.all(policy.rates >= 0) and np.all(policy.rates <= 1) and np.all(policy.rho < 1)):
        raise StabilityError("need 0 <= lambda_i <= 1 and rho_i < 1 for every terminal")

    rng = np.random.default_rng(seed)
    arrivals = [_bernoulli_arrivals(rng, lam, horizon) for lam in policy.rates]
    queues = _Queues(arrivals, horizon)
    walk = _walk(policy.matrix, start, rng, horizon)
    stats, log = _count(g, walk, horizon, burn_in, record_events, queues.serve)
    if not record_events:
        return stats
    events = [(a, "arrive", i, a) for i, arr in enumerate(arrivals) for a in arr.tolist()]
    for t0, positions, (terminal, slot, generated) in log:
        events.extend((t, "deliver", i, gen) for t, i, gen in
                      zip(slot.tolist(), terminal.tolist(), generated.tolist()))
        events.extend((t, "move", m, None) for t, m in enumerate(positions[1:].tolist(), t0))
    events.sort(key=lambda e: (e[0], _EVENT_ORDER[e[1]]))
    return stats, events


class _Queues:
    """The FCFS packet queues of a dissemination run, served by the walk's visits.

    Terminal i's k-th visit delivers its next packet if one has arrived:
    with A_k the packets generated by then and D_k those delivered,
    D_k = min(D_{k-1} + 1, A_k) = k + min(D_0, min_{j <= k} (A_j - j)),
    a running minimum per terminal.  The packet delivered at visit k is
    packet D_k - 1.
    """

    def __init__(self, arrivals: list, horizon: int):
        counts = np.array([len(a) for a in arrivals], dtype=np.int64)
        self.stride = horizon + 1
        self.offset = np.concatenate(([0], np.cumsum(counts)))
        self.generated = np.concatenate(arrivals)
        # keys terminal * stride + slot rank every packet in one sorted array
        self.keys = self.generated + np.repeat(np.arange(len(arrivals)) * self.stride, counts)
        self.delivered = np.zeros(len(arrivals), dtype=np.int64)
        self.warned = False

    def serve(self, visits: np.ndarray, t0: int) -> tuple:
        """Deliveries (terminal, slot, generated) of visits in slots t0, t0 + 1, ...

        The deliveries come grouped by terminal; `delivered` is updated, and
        the backlog is checked at every slot among them that 16,384 divides,
        whatever the chunk size.
        """
        order, first, ids = _groups(visits)
        terminal = visits[order]
        owner = terminal.astype(np.int64)
        slot = np.arange(t0, t0 + len(visits))[order]
        sizes = np.diff(np.append(first, len(slot)))
        run = np.repeat(np.arange(len(first)), sizes)
        k = np.arange(1, len(slot) + 1) - np.repeat(first, sizes)
        arrived = np.searchsorted(self.keys, owner * self.stride + slot, side="right")
        slack = arrived - self.offset[owner] - k
        slack[first] = np.minimum(slack[first], self.delivered[ids])
        # one running minimum over all terminals: lowering each run below the
        # one before by more than the spread of slack keeps the runs apart
        drop = run * (slack.max() - slack.min() + 1)
        total = k + np.minimum.accumulate(slack - drop) + drop
        before = np.roll(total, 1)
        before[first] = self.delivered[ids]
        hit = total > before
        self.delivered[ids] = total[np.append(first[1:], len(slot)) - 1]
        terminal, slot = terminal[hit], slot[hit]
        every = 1 << 14
        n = len(self.delivered)
        for s in range(-(-t0 // every) * every, t0 + len(visits), every):
            arrived = np.searchsorted(self.keys, np.arange(n) * self.stride + s, side="right")
            # the packets delivered by slot s exclude this chunk's later deliveries
            backlog = (arrived - self.offset[:-1] - self.delivered
                       + np.bincount(terminal[slot > s], minlength=n))
            over = np.flatnonzero(backlog > QUEUE_WARNING_THRESHOLD)
            if len(over) and not self.warned:
                # the warning points at the caller of simulate_dissemination
                warnings.warn(
                    f"queue {over[0]} backlog {backlog[over[0]]} exceeds "
                    f"{QUEUE_WARNING_THRESHOLD} at slot {s}; the system looks unstable",
                    QueueBacklogWarning, stacklevel=4)
                self.warned = True
        return terminal, slot, self.generated[self.offset[owner[hit]] + total[hit] - 1]


_MARGIN = 1.02  # Monte-Carlo slack on the hard dissemination checks


def dissemination_report(policy: DisseminationPolicy, stats: AgeStats, weights) -> dict:
    """Measured-versus-bound report for a completed dissemination run.

    Hard pass/fail: per-terminal empirical peak within the analytic upper
    bound, and empirical average within empirical peak (both with a 2%
    margin).  The mixing-time shapes are reported with discrepancy/4 as a
    stand-in proxy and carry no pass/fail.
    """
    peak, avg = stats.per_terminal_peak, stats.per_terminal_avg
    peak_ok = peak <= policy.upper_bounds * _MARGIN
    avg_ok = avg <= peak * _MARGIN
    columns = {"rate": policy.rates, "rho": policy.rho, "empirical_peak": peak,
               "upper_bound": policy.upper_bounds, "peak_within_bound": peak_ok,
               "empirical_avg": avg, "avg_within_peak": avg_ok}
    per_terminal = [{"terminal": i, **dict(zip(columns, row))} for i, row in
                    enumerate(zip(*(c.tolist() for c in columns.values())))]
    gathering_opt_peak = float(np.sum(np.asarray(weights, dtype=float) / policy.target_pi))
    h_proxy = policy.discrepancy / 4.0
    return {
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
            "peak_bounds_pass": bool(peak_ok.all()),
            "avg_within_peak_pass": bool(avg_ok.all()),
            "margin": _MARGIN,
        },
    }
