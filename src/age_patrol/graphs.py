"""Mobility graphs: generation, validation, and JSON round-tripping.

A mobility graph is a strongly connected directed graph on terminals
``0..n-1`` together with one positive importance weight per terminal.
Edges are stored as ordered pairs without self-loops; the built-in
families (random geometric, grid with diagonals, ring with neighbour
radius k) all emit symmetric edge sets, so strong connectivity reduces
to plain connectivity for them.  `MobilityGraph` is a `JsonRecord`, so a
graph file is read and written by the package's one JSON codec, which
rejects a fractional or boolean count or endpoint and a weight that is
not a JSON number where the file is read.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import index

import numpy as np

from .errors import DisconnectedGraphError, GraphValidationError
from .markov import JsonRecord, read_json, strongly_connected, write_json

MAX_GEOMETRIC_ATTEMPTS = 100


@dataclass(frozen=True, eq=False)
class MobilityGraph(JsonRecord):
    n: int
    edges: frozenset = field(metadata={"dtype": int, "shape": (None, 2)})
    weights: np.ndarray
    coords: np.ndarray | None = field(default=None, metadata={"shape": (None, 2)})
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        try:  # index() gives a numpy integer as an int and refuses a float
            object.__setattr__(self, "n", index(self.n))
            object.__setattr__(self, "edges",
                               frozenset((index(i), index(j)) for i, j in self.edges))
        except TypeError as exc:
            raise GraphValidationError(f"n and edge endpoints must be integers: {exc}") from exc
        if self.n < 2:
            raise GraphValidationError("graph needs at least 2 terminals")
        object.__setattr__(self, "weights", _checked_weights(self.weights, self.n))
        if self.coords is not None:
            coords = np.array(self.coords, dtype=float)
            coords.flags.writeable = False
            object.__setattr__(self, "coords", coords)
        rows, cols = self.edge_index
        bad = (np.minimum(rows, cols) < 0) | (np.maximum(rows, cols) >= self.n) | (rows == cols)
        for i, j in zip(rows[bad].tolist(), cols[bad].tolist()):
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise GraphValidationError(f"endpoint out of range: edge ({i}, {j}) on n={self.n}")
            raise GraphValidationError(f"self-loops are not allowed: ({i}, {j})")
        if self.coords is not None and self.coords.shape != (self.n, 2):
            raise GraphValidationError("coords must be an (n, 2) array")
        if self.coords is not None and not np.all(np.isfinite(self.coords)):
            raise GraphValidationError("coords must be finite")
        if not strongly_connected(self.adjacency):
            raise DisconnectedGraphError("graph is not strongly connected")

    @cached_property
    def edge_index(self) -> tuple:
        """(rows, cols) integer arrays of the edges, in row-major order."""
        pairs = np.fromiter(chain.from_iterable(self.edges), np.intp).reshape(-1, 2)
        pairs = pairs[np.argsort(pairs[:, 0] * self.n + pairs[:, 1])]
        return pairs[:, 0].copy(), pairs[:, 1].copy()

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Read-only n x n boolean mask of the edges: adjacency[i, j] iff (i, j) is an edge."""
        adjacency = np.zeros((self.n, self.n), dtype=bool)
        adjacency[self.edge_index] = True
        adjacency.flags.writeable = False
        return adjacency

    @cached_property
    def out_degree(self) -> np.ndarray:
        return np.bincount(self.edge_index[0], minlength=self.n)

    @cached_property
    def neighbors(self) -> list:
        """Sorted out-neighbour list per terminal."""
        cols = self.edge_index[1].tolist()
        ends = np.cumsum(self.out_degree).tolist()
        return [cols[start:end] for start, end in zip([0] + ends, ends)]

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self.edges

    def is_symmetric(self) -> bool:
        return bool(self.adjacency[self.edge_index[::-1]].all())  # every reversed edge

    def with_weights(self, weights) -> "MobilityGraph":
        """A copy with new weights that shares the checked edges and drops `weights_*` meta."""
        g = object.__new__(type(self))  # no __post_init__; the cached forms read only n and edges
        meta = {key: value for key, value in self.meta.items() if not key.startswith("weights_")}
        g.__dict__.update(self.__dict__, weights=_checked_weights(weights, self.n), meta=meta)
        return g


def _checked_weights(weights, n: int) -> np.ndarray:
    weights = np.array(weights, dtype=float)
    if weights.shape != (n,):
        raise GraphValidationError("weights length must equal the terminal count")
    if not np.all(np.isfinite(weights)):
        raise GraphValidationError("weights must be finite")
    if not np.all(weights > 0):
        raise GraphValidationError("weight must be positive")
    weights.flags.writeable = False
    return weights


def _pairs_within(pts: np.ndarray, r: float) -> tuple:
    """Index arrays of the ordered pairs of distinct points at Euclidean distance <= r."""
    # one coordinate at a time: two n x n float arrays, not an (n, n, 2) cube
    dist = np.subtract.outer(pts[:, 0], pts[:, 0])
    dist *= dist
    step = np.subtract.outer(pts[:, 1], pts[:, 1])
    step *= step
    dist += step
    np.sqrt(dist, out=dist)
    near = dist <= r
    np.fill_diagonal(near, False)
    return np.nonzero(near)


def generate_random_geometric(n: int, r: float, seed: int) -> MobilityGraph:
    """Random geometric graph on the unit square with connection radius r.

    Points are drawn i.i.d. uniform; terminals within Euclidean distance r
    (inclusive) are joined in both directions.  If the sample is
    disconnected the generator resamples with an incremented seed, up to
    MAX_GEOMETRIC_ATTEMPTS times, then fails (the radius is too small for n).
    """
    if n < 2:
        raise GraphValidationError("graph needs at least 2 terminals")
    if not 0 <= r <= math.sqrt(2) + 1e-12:  # written so that a NaN radius fails it
        raise GraphValidationError("radius must lie in [0, sqrt(2)]")
    for attempt in range(MAX_GEOMETRIC_ATTEMPTS):
        rng = np.random.default_rng(seed + attempt)
        pts = rng.random((n, 2))
        ii, jj = _pairs_within(pts, r)
        edges = frozenset(zip(ii.tolist(), jj.tolist()))
        meta = {"family": "geometric", "seed": seed,
                "params": {"n": n, "r": r, "attempts": attempt + 1}}
        try:
            return MobilityGraph(n, edges, np.ones(n), pts, meta)
        except DisconnectedGraphError:
            continue
    raise DisconnectedGraphError(
        f"disconnected after max attempts ({MAX_GEOMETRIC_ATTEMPTS}); radius {r} too small for n={n}")


def generate_grid_diag(side: int) -> MobilityGraph:
    """side x side lattice where each node also connects to its diagonals."""
    if side < 2:
        raise GraphValidationError("grid side must be at least 2")
    n = side * side
    # each cell to each of its up to 8 lattice neighbours, so both directions of every edge
    edges = frozenset((r * side + c, (r + dr) * side + c + dc)
                      for r in range(side) for c in range(side)
                      for dr in (-1, 0, 1) for dc in (-1, 0, 1)
                      if (dr or dc) and 0 <= r + dr < side and 0 <= c + dc < side)
    meta = {"family": "grid", "seed": None, "params": {"side": side}}
    return MobilityGraph(n, edges, np.ones(n), None, meta)


def generate_ring_k(n: int, k: int) -> MobilityGraph:
    """Ring of n terminals where node i connects to i +- 1 .. i +- k (mod n)."""
    if n < 3:
        raise GraphValidationError("ring needs at least 3 terminals")
    if not 1 <= k <= (n - 1) // 2:
        raise GraphValidationError("neighbour radius k must satisfy 1 <= k <= (n-1)//2")
    edges = frozenset((i, (i + d) % n) for i in range(n) for d in range(-k, k + 1) if d)
    meta = {"family": "ring", "seed": None, "params": {"n": n, "k": k}}
    return MobilityGraph(n, edges, np.ones(n), None, meta)


def assign_weights(g: MobilityGraph, mode: str, *, lo: float = 1.0, hi: float = 2.0,
                   seed: int | None = None) -> MobilityGraph:
    """Return a copy of g with terminal weights set.

    mode "uniform" sets every weight to 1.  mode "random_interval" draws
    i.i.d. uniform from the half-open interval (lo, hi].
    """
    if mode == "uniform":
        weights = np.ones(g.n)
        extra = {"weights_mode": "uniform"}
    elif mode == "random_interval":
        if lo <= 0:
            raise GraphValidationError("interval lower bound must be positive")
        if hi < lo:
            raise GraphValidationError("interval upper bound must be >= lower bound")
        rng = np.random.default_rng(seed)
        # hi - u*(hi-lo) with u in [0,1) lands in (lo, hi]
        weights = hi - rng.random(g.n) * (hi - lo)
        extra = {"weights_mode": "random_interval", "weights_lo": lo,
                 "weights_hi": hi, "weights_seed": seed}
    else:
        raise GraphValidationError(f"unknown weight mode: {mode!r}")
    g = g.with_weights(weights)
    g.meta.update(extra)  # the copy's own dict
    return g


def save_graph(g: MobilityGraph, path) -> None:
    write_json(path, dict(g.to_json(),
                          meta={"family": "custom", "seed": None, "params": {}, **g.meta}))


def load_graph(path) -> MobilityGraph:
    """Read a graph file; every way it can be malformed raises GraphValidationError."""
    try:
        return MobilityGraph.from_json(read_json(path))
    except GraphValidationError:
        raise
    except json.JSONDecodeError as exc:
        raise GraphValidationError(f"could not parse graph file: {exc}") from exc
    except ValueError as exc:
        raise GraphValidationError(f"malformed graph file: {exc}") from exc
