"""The one age engine every simulator counts with, and the gathering walkers.

A terminal's age is a ramp that grows by 1 per slot and resets when an
update is delivered: delivering in slot t an update generated in slot G
records the peak age t - base (base is the generation slot of the update
delivered before) and restarts the ramp so that the age in slot t + 1 is
t + 1 - G.  Gathering is the special case G = t (the agent collects a fresh
update on every visit, so the age at a visit equals the return time);
dissemination and the vacation queue deliver queued packets with G <= t.

Every simulator walks first and counts after.  A tight sequential loop
produces only the agent's positions, one chunk of `_WALK_BUFFER` slots at a
time, and looks each step up in a table.  A random walk draws the chunk's
uniforms with one call and reads each step from its row's guide table of
`markov._GUIDE_BUCKETS` buckets, searching the row's inverse-CDF table only
in a bucket that a CDF boundary splits; the matrix builds these tables on
first use and keeps them.  The age-based walk reads its score factor
a*a + a from a table that doubles up to `_SCORE_TABLE_SIZE` entries.
Both directions count through one loop, `_count`: a delivery rule turns
each chunk's visits into deliveries (terminal, slot, generated), by default
a fresh update per visit, and `_AgeEngine` adds with numpy the closed-form,
window-clipped sum of every ramp they close and folds the chunk into
per-terminal carries (the last delivery slot and the generation slot of the
update delivered then).  Memory does not grow with the horizon, and the
statistics are exactly those of a naive per-slot update.
`periodic_exact_ages` returns the `AgeStats` of a two-period replay from a
closed form over the tour's gaps, an oracle independent of the engine.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .graphs import MobilityGraph
from .markov import _GUIDE_BUCKETS, JsonRecord, TransitionMatrix

# longest horizon whose per-slot trace or event log a run may record
TRACE_HORIZON_LIMIT = 100_000
# slots per walk chunk, and uniforms per draw from the generator
_WALK_BUFFER = 1 << 14
# most entries of the age-based walk's score table, so its memory stays bounded
_SCORE_TABLE_SIZE = 1 << 16


@dataclass(frozen=True, eq=False)
class AgeStats(JsonRecord):
    per_terminal_peak: np.ndarray   # mean age at visit slots (NaN if never visited)
    per_terminal_avg: np.ndarray    # time-averaged age over the window
    n_peaks: np.ndarray = field(metadata={"dtype": int})  # visits inside the window
    network_peak: float
    network_avg: float
    horizon: int
    burn_in: int


@dataclass(frozen=True, eq=False)
class AgeTrace:
    """The visit log of a gathering run, from which every slot's ages follow."""

    horizon: int
    n: int                 # terminals
    visit_log: np.ndarray  # visit_log[t-1] = agent location at slot t

    def slot_ages(self):
        """Yield A(t), the n ages in slot t, for t = 1..horizon, from a running last visit."""
        last = np.zeros(self.n, dtype=np.int64)  # last visit strictly before t (0 = never)
        for t, m in enumerate(self.visit_log.tolist(), 1):
            yield t - last
            last[m] = t

    @property
    def ages(self) -> np.ndarray:
        """ages[t-1, i] = A_i(t), a horizon x n int64 array built on each read."""
        return np.stack(list(self.slot_ages()))


def _terminal_dtype(n: int):
    """Smallest dtype for terminal indices; numpy radix-sorts 8- and 16-bit keys."""
    return np.min_scalar_type(max(n - 1, 0))


def _groups(terminal: np.ndarray) -> tuple:
    """Stable sort by terminal: (order, start of each terminal's run, its terminal)."""
    order = np.argsort(terminal, kind="stable")
    keys = terminal[order]
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return order, first, keys[first]


class _AgeEngine:
    """Window-clipped age sums and delivery peaks per terminal, one chunk at a time.

    Statistics cover slots in (burn_in, horizon].  Each `add` takes one
    chunk of deliveries, later than every delivery added before, with at
    most one per terminal and slot; every sum is an exact int64 for
    horizons below 2**31.
    """

    def __init__(self, n: int, horizon: int, burn_in: int):
        self.horizon = horizon
        self.burn_in = burn_in
        self.last = np.zeros(n, dtype=np.int64)   # slot of the last delivery (0 = never)
        self.base = np.zeros(n, dtype=np.int64)   # generation slot of the update delivered then
        self.age_sum = np.zeros(n, dtype=np.int64)
        self.peak_sum = np.zeros(n, dtype=np.int64)
        self.peak_count = np.zeros(n, dtype=np.int64)

    def add(self, terminal: np.ndarray, slot: np.ndarray, generated: np.ndarray):
        """Fold in deliveries given as arrays; gathering passes `generated` = `slot`.

        `slot` and `generated` are int64 arrays in slot order.
        """
        if len(terminal) == 0:
            return
        order, first, ids = _groups(terminal)
        t = slot[order]
        gen = generated[order]
        # each delivery closes the ramp its terminal's previous delivery opened
        prev_t = np.roll(t, 1)
        prev_t[first] = self.last[ids]
        prev_b = np.roll(gen, 1)
        prev_b[first] = self.base[ids]
        lo = np.maximum(prev_t, self.burn_in)
        # ages on (lo, t] form the ramp slot - prev_b
        ramp = np.maximum(t - lo, 0) * (lo + 1 + t - 2 * prev_b) // 2
        in_window = t > self.burn_in
        self.age_sum[ids] += np.add.reduceat(ramp, first)
        self.peak_sum[ids] += np.add.reduceat((t - prev_b) * in_window, first)
        self.peak_count[ids] += np.add.reduceat(in_window, first, dtype=np.int64)
        ends = np.append(first[1:], len(t)) - 1
        self.last[ids] = t[ends]
        self.base[ids] = gen[ends]

    def finish(self, weights) -> AgeStats:
        """Close every open ramp at the horizon and return the statistics."""
        h = self.horizon
        lo = np.maximum(self.last, self.burn_in)
        age_sum = self.age_sum + (h - lo) * (lo + 1 + h - 2 * self.base) // 2
        counts = self.peak_count
        with np.errstate(invalid="ignore", divide="ignore"):
            peaks = self.peak_sum / counts
        peaks[counts == 0] = np.nan
        avg = age_sum / (h - self.burn_in)
        return AgeStats(
            per_terminal_peak=peaks,
            per_terminal_avg=avg,
            n_peaks=counts,
            network_peak=float(np.sum(weights * peaks)),
            network_avg=float(np.sum(weights * avg)),
            horizon=h,
            burn_in=self.burn_in,
        )


def _fresh(visits: np.ndarray, t0: int) -> tuple:
    """Gathering's deliveries: each visit delivers an update generated in its own slot."""
    slots = np.arange(t0, t0 + len(visits))
    return visits, slots, slots


def _count(g: MobilityGraph, chunks, horizon: int, burn_in: int, record: bool,
           deliver=_fresh):
    """(AgeStats, log) of a walk given as `_walk` chunks; the one loop feeding `_AgeEngine`.

    `deliver(visits, t0)` gives the deliveries (terminal, slot, generated) of
    the visits in slots t0, t0 + 1, ...; log, None unless record is set,
    lists every chunk's (t0, positions, deliveries).
    """
    engine = _AgeEngine(g.n, horizon, burn_in)
    log = [] if record else None
    for t0, positions in chunks:
        deliveries = deliver(positions[:-1], t0)
        engine.add(*deliveries)
        if record:
            log.append((t0, positions, deliveries))
    return engine.finish(g.weights), log


def _gather(g: MobilityGraph, chunks, horizon: int, burn_in: int, record_trace: bool):
    """AgeStats of a gathering walk, or (AgeStats, AgeTrace) when record_trace is set."""
    stats, log = _count(g, chunks, horizon, burn_in, record_trace)
    if not record_trace:
        return stats
    visits = np.concatenate([positions[:-1] for _, positions, _ in log]).astype(int)
    return stats, AgeTrace(horizon=len(visits), n=g.n, visit_log=visits)


def check_window(horizon: int, burn_in: int | None, trace: bool = False) -> int:
    """Resolve the default burn-in and validate the window (burn_in, horizon]."""
    if burn_in is None:
        burn_in = horizon // 50
    if not 0 <= burn_in < horizon:
        raise ValueError("need horizon > burn_in >= 0")
    if trace and horizon > TRACE_HORIZON_LIMIT:
        raise ValueError(f"traces and event logs are limited to horizons <= "
                         f"{TRACE_HORIZON_LIMIT}")
    return burn_in


def _check_run(g: MobilityGraph, P: TransitionMatrix | None, horizon: int,
               burn_in: int | None, start: int, trace: bool) -> int:
    """Validate a walk's matrix (None for the greedy walk), window and start; return the burn-in."""
    if P is not None:
        if P.n != g.n:
            raise ValueError("matrix dimension does not match the graph")
        if P.support_violations(g):
            raise ValueError("matrix places probability on non-edges of the graph")
    burn_in = check_window(horizon, burn_in, trace=trace)
    if not 0 <= start < g.n:
        raise ValueError("start terminal out of range")
    return burn_in


def _walk(P: TransitionMatrix, cur: int, rng: np.random.Generator, horizon: int):
    """Yield (t0, positions): the agent's positions in slots t0..t0 + m, m <= _WALK_BUFFER.

    The walk starts at `cur` in slot 1 and moves once per slot by an
    inverse-CDF draw from its row of P, `horizon` draws in all.  A uniform u
    reads the next state from the row's guide table at bucket
    int(u * _GUIDE_BUCKETS), and only a bucket with a CDF boundary inside it
    searches the row's table, so every draw equals `bisect_right`'s (see
    `markov._sampling_tables`; P keeps the tables for its next walk).
    Each chunk takes its uniforms from one `rng.random(_WALK_BUFFER)` call,
    so the walk uses the same stream of uniforms whatever the chunk size.
    A chunk's last position is the next chunk's first.
    """
    rows, guides = P.samplers
    dtype = _terminal_dtype(P.n)
    for t0 in range(1, horizon + 1, _WALK_BUFFER):
        positions = [cur]
        append = positions.append
        us = rng.random(_WALK_BUFFER)[:horizon + 1 - t0]
        for u, k in zip(us.tolist(), (us * _GUIDE_BUCKETS).astype(np.intp).tolist()):
            nxt = guides[cur][k]
            if nxt < 0:
                cum, vals = rows[cur]
                nxt = vals[bisect_right(cum, u)]
            cur = nxt
            append(cur)
        yield t0, np.array(positions, dtype=dtype)


def simulate_randomized(g: MobilityGraph, P: TransitionMatrix, horizon: int,
                        burn_in: int | None = None, seed: int = 0, start: int = 0,
                        record_trace: bool = False):
    """Walk the chain P for `horizon` slots and collect age statistics.

    Statistics cover slots in (burn_in, horizon]; all ages start at 1
    with the agent at `start`.  Returns AgeStats, or (AgeStats, AgeTrace)
    when record_trace is set (horizon capped at TRACE_HORIZON_LIMIT).
    """
    burn_in = _check_run(g, P, horizon, burn_in, start, record_trace)
    walk = _walk(P, start, np.random.default_rng(seed), horizon)
    return _gather(g, walk, horizon, burn_in, record_trace)


def _age_based_walk(g: MobilityGraph, cur: int, horizon: int):
    """`_walk`-style chunks of the greedy walk: argmax_j w_j (A_j^2 + A_j), lowest j on ties.

    A slot scores each neighbour j as w_j * tri[A_j] from a table tri[a] = a*a + a
    of floats, exact since a*a + a < 2**53 below _SCORE_TABLE_SIZE, so the
    score is the float direct arithmetic gives.  The table doubles when a
    larger age occurs, up to _SCORE_TABLE_SIZE entries; a slot with an older
    neighbour is scored by direct arithmetic.
    """
    w = g.weights.tolist()
    adj = [[(j, w[j]) for j in nbrs] for nbrs in g.neighbors]
    last = [0] * g.n   # slot of the last visit (0 = never)
    tri = [0.0]
    dtype = _terminal_dtype(g.n)
    for t0 in range(1, horizon + 1, _WALK_BUFFER):
        positions = [cur]
        append = positions.append
        for t in range(t0, min(t0 + _WALK_BUFFER, horizon + 1)):
            last[cur] = t
            best_val = -1.0
            best_j = -1
            try:
                for j, wj in adj[cur]:
                    val = wj * tri[t - last[j]]
                    if val > best_val:
                        best_val = val
                        best_j = j
            except IndexError:   # an age past the table: score the slot directly
                best_val = -1.0
                for j, wj in adj[cur]:
                    a = t - last[j]
                    val = wj * (a * a + a)
                    if val > best_val:
                        best_val = val
                        best_j = j
                size = len(tri)
                tri.extend(float(a * a + a) for a in range(size, min(2 * size, _SCORE_TABLE_SIZE)))
            cur = best_j
            append(cur)
        yield t0, np.array(positions, dtype=dtype)


def simulate_age_based(g: MobilityGraph, horizon: int = 50_000, burn_in: int | None = None,
                       start: int = 0, record_trace: bool = False):
    """Greedy walker: move to the neighbour j maximizing w_j (A_j(t)^2 + A_j(t)).

    Ties break to the lowest index, so the walk is deterministic and draws
    no random numbers.
    """
    burn_in = _check_run(g, None, horizon, burn_in, start, record_trace)
    return _gather(g, _age_based_walk(g, start, horizon), horizon, burn_in, record_trace)


def _check_tour(sequence, n: int) -> list:
    """`sequence` as a list of terminals in range(n) that visits every terminal."""
    try:
        seq = [operator.index(s) for s in sequence]
    except TypeError:
        raise ValueError("sequence entries must be integers") from None
    for s in seq:
        if not 0 <= s < n:
            raise ValueError(f"sequence terminal {s} out of range")
    missing = sorted(set(range(n)) - set(seq))
    if missing:
        raise ValueError(f"terminal never visited (infinite age): {missing}")
    return seq


def periodic_exact_ages(sequence, weights) -> AgeStats:
    """Closed-form ages of the infinite repetition of `sequence`.

    For terminal i with k visits and inter-visit gaps h_1..h_k inside one
    period of length L: average age = sum (h^2 + h) / (2L), peak age = L / k.
    The result equals `simulate_periodic(g, sequence, 2L)`: horizon 2L,
    burn-in L and k peaks per terminal.
    """
    w = np.asarray(weights, dtype=float)
    seq = _check_tour(sequence, len(w))
    length = len(seq)
    positions = [[] for _ in w]
    for idx, s in enumerate(seq):
        positions[s].append(idx)
    gaps = [[b - a for a, b in zip(pos, pos[1:] + [pos[0] + length])] for pos in positions]
    peak = np.array([length / len(h) for h in gaps])
    avg = np.array([sum(x * x + x for x in h) / (2 * length) for h in gaps])
    return AgeStats(
        per_terminal_peak=peak,
        per_terminal_avg=avg,
        n_peaks=np.array([len(h) for h in gaps], dtype=np.int64),
        network_peak=float(np.sum(w * peak)),
        network_avg=float(np.sum(w * avg)),
        horizon=2 * length,
        burn_in=length,
    )


def simulate_periodic(g: MobilityGraph, sequence, horizon: int,
                      burn_in: int | None = None, record_trace: bool = False):
    """Deterministic replay of a periodic visit sequence.

    The horizon must be a multiple of the period.  The default burn-in of
    one full period discards the start-up transient, after which the
    empirical statistics equal `periodic_exact_ages` exactly.
    """
    seq = _check_tour(sequence, g.n)
    length = len(seq)
    for a, b in zip(seq, seq[1:] + seq[:1]):
        if not g.has_edge(a, b):
            raise ValueError(f"sequence uses a non-edge: ({a}, {b})")
    if horizon % length != 0:
        raise ValueError("horizon must be a multiple of the period")
    burn_in = check_window(horizon, length if burn_in is None else burn_in,
                           trace=record_trace)
    tour = np.array(seq, dtype=_terminal_dtype(g.n))
    chunks = ((t0, tour[np.arange(t0 - 1, min(t0 + _WALK_BUFFER, horizon + 1)) % length])
              for t0 in range(1, horizon + 1, _WALK_BUFFER))
    return _gather(g, chunks, horizon, burn_in, record_trace)
