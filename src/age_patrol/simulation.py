"""One age engine for every simulator, and the gathering walkers built on it.

A terminal's age is a ramp that grows by 1 per slot and resets when an
update is delivered: delivering in slot t an update generated in slot G
records the peak age t - base (base is the generation slot of the update
delivered before) and restarts the ramp so that the age in slot t + 1 is
t + 1 - G.  Gathering is the special case G = t (the agent collects a fresh
update on every visit, so the age at a visit equals the return time);
dissemination and the vacation queue deliver queued packets with G <= t.
All of them call one recorder, `_Recorder.deliver(i, t, generated)`.

The recorder never touches ages slot by slot: each delivery adds the
closed-form, window-clipped sum of the ramp it closes.  This keeps
million-slot runs cheap while producing exactly the same statistics as a
naive per-slot update.  Random walks and the queue's service and vacation
lengths are drawn by one buffered inverse-CDF sampler, `_sampler`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .aoi_analysis import average_age_lower_bound
from .graphs import MobilityGraph, bfs_distances
from .markov import JsonRecord, TransitionMatrix

TRACE_HORIZON_LIMIT = 100_000
# the age functions g of the age-based walker, by name
AGE_FUNCTIONS = ("quadratic_plus_linear", "identity")
_WALK_BUFFER = 1 << 16
# guard rails for the exhaustive periodic-trajectory search
BRUTE_FORCE_MAX_TERMINALS = 8
BRUTE_FORCE_MAX_PERIOD = 16


@dataclass(frozen=True)
class AgeStats(JsonRecord):
    per_terminal_peak: np.ndarray   # mean age at visit slots (NaN if never visited)
    per_terminal_avg: np.ndarray    # time-averaged age over the window
    n_peaks: np.ndarray = field(metadata={"dtype": int})  # visits inside the window
    network_peak: float
    network_avg: float
    horizon: int
    burn_in: int

    @property
    def n(self) -> int:
        return len(self.per_terminal_avg)

    def visit_fraction(self) -> np.ndarray:
        return self.n_peaks / (self.horizon - self.burn_in)


@dataclass(frozen=True)
class AgeTrace:
    horizon: int
    ages: np.ndarray       # ages[t-1, i] = A_i(t)
    visit_log: np.ndarray  # visit_log[t-1] = agent location at slot t
    peaks: list            # per-terminal list of ages recorded at visit slots


class _Recorder:
    """Window-clipped age sums and delivery peaks per terminal.

    Statistics cover slots in (burn_in, horizon].  `deliver` is a closure
    over local lists rather than a method: it runs once per delivery in
    the per-slot loops, where a bound-method call costs measurably more.
    """

    def __init__(self, n: int, horizon: int, burn_in: int):
        self.n = n
        self.horizon = horizon
        self.burn_in = burn_in
        base = [0] * n     # generation slot of the last delivered update
        last = [0] * n     # slot of the last delivery (0 = never)
        age_sum = [0] * n
        peak_sum = [0] * n
        peak_count = [0] * n

        def deliver(i: int, t: int, generated: int) -> None:
            b = base[i]
            lo = last[i] if last[i] > burn_in else burn_in
            if t > lo:
                # ages on (lo, t] form the ramp slot - b
                age_sum[i] += (t - lo) * ((lo + 1 - b) + (t - b)) // 2
            if t > burn_in:
                peak_sum[i] += t - b
                peak_count[i] += 1
            base[i] = generated
            last[i] = t

        self.deliver = deliver
        self.last_delivery = last
        self._sums = (age_sum, peak_sum, peak_count)

    def finish(self, weights) -> AgeStats:
        """Close every open ramp at the horizon and return the statistics (call once)."""
        age_sum, peak_sum, peak_count = self._sums
        counts = np.array(peak_count, dtype=int)
        with np.errstate(invalid="ignore", divide="ignore"):
            peaks = np.array(peak_sum, dtype=float) / counts
        peaks[counts == 0] = np.nan
        # close the ramps still open at the horizon; the peaks are already read
        for i in range(self.n):
            self.deliver(i, self.horizon, self.horizon)
        avg = np.array(age_sum, dtype=float) / (self.horizon - self.burn_in)
        return AgeStats(
            per_terminal_peak=peaks,
            per_terminal_avg=avg,
            n_peaks=counts,
            network_peak=float(np.sum(weights * peaks)),
            network_avg=float(np.sum(weights * avg)),
            horizon=self.horizon,
            burn_in=self.burn_in,
        )


def _build_trace(n: int, visit_log: list) -> AgeTrace:
    """Per-slot ages and visit peaks of a gathering run, rebuilt from its visit log."""
    log = np.array(visit_log, dtype=int)
    slots = np.arange(1, len(log) + 1)
    ages = np.empty((len(log), n), dtype=np.int64)
    peaks = []
    for i in range(n):
        visits = np.concatenate(([0], np.flatnonzero(log == i) + 1))
        # the age in slot t counts from the last visit strictly before t
        ages[:, i] = slots - visits[np.searchsorted(visits, slots) - 1]
        peaks.append(np.diff(visits).tolist())
    return AgeTrace(horizon=len(log), ages=ages, visit_log=log, peaks=peaks)


def _gathering_result(rec: _Recorder, g: MobilityGraph, log: list | None):
    stats = rec.finish(g.weights)
    return stats if log is None else (stats, _build_trace(g.n, log))


def _check_window(horizon: int, burn_in: int | None, default: int | None = None,
                  trace: bool = False) -> int:
    """Resolve the default burn-in and validate the window (burn_in, horizon]."""
    if burn_in is None:
        burn_in = horizon // 50 if default is None else default
    if not 0 <= burn_in < horizon:
        raise ValueError("need horizon > burn_in >= 0")
    if trace and horizon > TRACE_HORIZON_LIMIT:
        raise ValueError(f"traces are limited to horizons <= {TRACE_HORIZON_LIMIT}")
    return burn_in


def _row_samplers(p: np.ndarray) -> list:
    samplers = []
    for row in p:
        nz = np.nonzero(row)[0]
        samplers.append((np.cumsum(row[nz]).tolist(), nz.tolist()))
    return samplers


def _sampler(rng: np.random.Generator):
    """Return draw((cum, vals)): one inverse-CDF draw from buffered uniforms.

    The buffer is filled on the first draw, so a caller that draws other
    variates from rng first (arrivals) keeps them ahead of the walk buffer.
    """
    buf = None
    k = _WALK_BUFFER

    def draw(law):
        nonlocal buf, k
        if k == _WALK_BUFFER:
            buf = rng.random(_WALK_BUFFER).tolist()
            k = 0
        u = buf[k]
        k += 1
        cum, vals = law
        pos = bisect_right(cum, u)
        return vals[pos] if pos < len(vals) else vals[-1]

    return draw


def simulate_randomized(g: MobilityGraph, P: TransitionMatrix, horizon: int,
                        burn_in: int | None = None, seed: int = 0, start: int = 0,
                        record_trace: bool = False):
    """Walk the chain P for `horizon` slots and collect age statistics.

    Statistics cover slots in (burn_in, horizon]; all ages start at 1
    with the agent at `start`.  Returns AgeStats, or (AgeStats, AgeTrace)
    when record_trace is set (horizon capped at TRACE_HORIZON_LIMIT).
    """
    if P.n != g.n:
        raise ValueError("matrix dimension does not match the graph")
    if P.support_violations(g):
        raise ValueError("matrix places probability on non-edges of the graph")
    burn_in = _check_window(horizon, burn_in, trace=record_trace)
    if not 0 <= start < g.n:
        raise ValueError("start terminal out of range")

    samplers = _row_samplers(P.p)
    draw = _sampler(np.random.default_rng(seed))
    rec = _Recorder(g.n, horizon, burn_in)
    deliver = rec.deliver
    log = [] if record_trace else None
    cur = start
    for t in range(1, horizon + 1):
        deliver(cur, t, t)
        if record_trace:
            log.append(cur)
        cur = draw(samplers[cur])
    return _gathering_result(rec, g, log)


def simulate_age_based(g: MobilityGraph, g_fn="quadratic_plus_linear", horizon: int = 50_000,
                       burn_in: int | None = None, start: int = 0,
                       record_trace: bool = False):
    """Greedy walker: move to the neighbour j maximizing w_j * g(A_j(t)).

    g_fn names g: "quadratic_plus_linear" (a^2 + a, the default) or
    "identity".  Ties break to the lowest index, so the walk is
    deterministic and draws no random numbers.
    """
    if g_fn not in AGE_FUNCTIONS:
        raise ValueError(f"unknown age function: {g_fn!r}")
    quadratic = g_fn == "quadratic_plus_linear"
    burn_in = _check_window(horizon, burn_in, trace=record_trace)
    if not 0 <= start < g.n:
        raise ValueError("start terminal out of range")
    nbrs = g.neighbors
    if any(not lst for lst in nbrs):
        raise ValueError("age-based walker needs positive out-degree everywhere")
    w = g.weights.tolist()

    rec = _Recorder(g.n, horizon, burn_in)
    deliver = rec.deliver
    last = rec.last_delivery
    log = [] if record_trace else None
    cur = start
    for t in range(1, horizon + 1):
        deliver(cur, t, t)
        if record_trace:
            log.append(cur)
        best_val = -1.0
        best_j = -1
        if quadratic:
            for j in nbrs[cur]:
                a = t - last[j]
                val = w[j] * (a * a + a)
                if val > best_val:
                    best_val = val
                    best_j = j
        else:
            for j in nbrs[cur]:
                val = w[j] * (t - last[j])
                if val > best_val:
                    best_val = val
                    best_j = j
        cur = best_j
    return _gathering_result(rec, g, log)


def _check_sequence(g: MobilityGraph, sequence) -> list:
    seq = [int(s) for s in sequence]
    if not seq:
        raise ValueError("sequence must not be empty")
    for s in seq:
        if not 0 <= s < g.n:
            raise ValueError(f"sequence terminal {s} out of range")
    missing = set(range(g.n)) - set(seq)
    if missing:
        raise ValueError(f"terminal never visited (infinite age): {sorted(missing)}")
    length = len(seq)
    for k in range(length):
        a, b = seq[k], seq[(k + 1) % length]
        if not g.has_edge(a, b):
            raise ValueError(f"sequence uses a non-edge: ({a}, {b})")
    return seq


@dataclass(frozen=True)
class PeriodicAges:
    """Exact long-run ages of a periodic trajectory (no simulation noise)."""

    per_terminal_peak: np.ndarray
    per_terminal_avg: np.ndarray
    network_peak: float
    network_avg: float


def periodic_exact_ages(sequence, weights) -> PeriodicAges:
    """Closed-form ages of the infinite repetition of `sequence`.

    For terminal i with inter-visit gaps h_1..h_k inside one period of
    length L: average age = sum (h^2 + h) / (2L), peak age = L / k.
    """
    w = np.asarray(weights, dtype=float)
    n = len(w)
    seq = [int(s) for s in sequence]
    length = len(seq)
    positions = [[] for _ in range(n)]
    for idx, s in enumerate(seq):
        positions[s].append(idx)
    if any(not pos for pos in positions):
        missing = [i for i, pos in enumerate(positions) if not pos]
        raise ValueError(f"terminal never visited (infinite age): {missing}")
    peak = np.empty(n)
    avg = np.empty(n)
    for i, pos in enumerate(positions):
        gaps = [pos[k + 1] - pos[k] for k in range(len(pos) - 1)]
        gaps.append(length - pos[-1] + pos[0])
        peak[i] = length / len(pos)
        avg[i] = sum(h * h + h for h in gaps) / (2 * length)
    return PeriodicAges(
        per_terminal_peak=peak,
        per_terminal_avg=avg,
        network_peak=float(np.sum(w * peak)),
        network_avg=float(np.sum(w * avg)),
    )


def simulate_periodic(g: MobilityGraph, sequence, horizon: int,
                      burn_in: int | None = None, record_trace: bool = False):
    """Deterministic replay of a periodic visit sequence.

    The horizon must be a multiple of the period.  The default burn-in of
    one full period discards the start-up transient, after which the
    empirical statistics equal `periodic_exact_ages` exactly.
    """
    seq = _check_sequence(g, sequence)
    length = len(seq)
    if horizon % length != 0:
        raise ValueError("horizon must be a multiple of the period")
    burn_in = _check_window(horizon, burn_in, default=length, trace=record_trace)
    rec = _Recorder(g.n, horizon, burn_in)
    deliver = rec.deliver
    for t in range(1, horizon + 1):
        deliver(seq[(t - 1) % length], t, t)
    return _gathering_result(rec, g, seq * (horizon // length) if record_trace else None)


def brute_force_optimal_periodic(g: MobilityGraph, max_period: int):
    """Exhaustive search for the best periodic trajectory of bounded period.

    Enumerates closed walks from terminal 0 of length <= max_period that
    cover every terminal, scoring each with `periodic_exact_ages`
    (average age first, peak as tie-break).  Guard-railed to small
    instances; worst-case cost is exponential in max_period.  Returns
    (sequence, network_avg, network_peak) for the best walk found; the
    result is optimal among periodic trajectories of period <= max_period
    (nothing is claimed about longer periods).
    """
    if g.n > BRUTE_FORCE_MAX_TERMINALS:
        raise ValueError(f"brute force limited to n <= {BRUTE_FORCE_MAX_TERMINALS}")
    if not 1 <= max_period <= BRUTE_FORCE_MAX_PERIOD:
        raise ValueError(f"brute force limited to max_period <= {BRUTE_FORCE_MAX_PERIOD}")
    w = g.weights
    n = g.n
    nbrs = g.neighbors
    dist = [bfs_distances(nbrs, src) for src in range(n)]
    lower_bound = average_age_lower_bound(w)
    full_mask = (1 << n) - 1

    best: list = [None, np.inf, np.inf]  # sequence, avg, peak

    def consider(path):
        ages = periodic_exact_ages(path, w)
        if (ages.network_avg < best[1] - 1e-15
                or (abs(ages.network_avg - best[1]) <= 1e-15 and ages.network_peak < best[2])):
            best[0] = list(path)
            best[1] = ages.network_avg
            best[2] = ages.network_peak

    path = [0]
    covered = 1

    def extend():
        nonlocal covered
        cur = path[-1]
        length = len(path)
        if covered == full_mask and g.has_edge(cur, 0):
            consider(path)
            if best[1] <= lower_bound + 1e-12:
                return True  # provably optimal; stop the whole search
        if length == max_period:
            return False
        remaining = max_period - length
        # the closing move back to terminal 0 is a wrap edge, not a step,
        # so the walk only has to END at a neighbour of 0
        if dist[cur][0] - 1 > remaining:
            return False
        uncovered = [u for u in range(n) if not covered >> u & 1]
        if len(uncovered) > remaining:
            return False
        for u in uncovered:
            if dist[cur][u] + dist[u][0] - 1 > remaining:
                return False
        for j in nbrs[cur]:
            path.append(j)
            added = not covered >> j & 1
            covered |= 1 << j
            done = extend()
            path.pop()
            if added:
                covered &= ~(1 << j)
            if done:
                return True
        return False

    extend()
    if best[0] is None:
        raise ValueError(f"no covering closed walk of period <= {max_period} exists")
    return best[0], best[1], best[2]

