"""Mobility graphs: generation, validation, and JSON round-tripping.

A mobility graph is a strongly connected directed graph on terminals
``0..n-1`` together with one positive importance weight per terminal.
Edges are stored as ordered pairs without self-loops; the built-in
families (random geometric, grid with diagonals, ring with neighbour
radius k) all emit symmetric edge sets, so strong connectivity reduces
to plain connectivity for them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DisconnectedGraphError, GraphValidationError

MAX_GEOMETRIC_ATTEMPTS = 100


@dataclass(frozen=True)
class MobilityGraph:
    n: int
    edges: frozenset
    weights: np.ndarray
    coords: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset((int(i), int(j)) for i, j in self.edges))
        weights = np.array(self.weights, dtype=float)
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        if self.coords is not None:
            coords = np.array(self.coords, dtype=float)
            coords.flags.writeable = False
            object.__setattr__(self, "coords", coords)
        _validate(self)

    @cached_property
    def neighbors(self) -> list:
        """Sorted out-neighbour list per terminal."""
        out = [[] for _ in range(self.n)]
        for i, j in self.edges:
            out[i].append(j)
        for lst in out:
            lst.sort()
        return out

    @cached_property
    def out_degree(self) -> np.ndarray:
        return np.array([len(lst) for lst in self.neighbors], dtype=int)

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self.edges

    def is_symmetric(self) -> bool:
        return all((j, i) in self.edges for i, j in self.edges)

    def with_weights(self, weights) -> "MobilityGraph":
        return replace(self, weights=np.asarray(weights, dtype=float))


def bfs_distances(adjacency, source: int) -> list:
    """Hop distances from source along the adjacency lists; -1 marks unreachable."""
    dist = [-1] * len(adjacency)
    dist[source] = 0
    queue = [source]
    for u in queue:
        d = dist[u] + 1
        for v in adjacency[u]:
            if dist[v] < 0:
                dist[v] = d
                queue.append(v)
    return dist


def strongly_connected(adjacency) -> bool:
    """True iff node 0 reaches every node along the lists and every node reaches 0."""
    reverse = [[] for _ in adjacency]
    for u, out in enumerate(adjacency):
        for v in out:
            reverse[v].append(u)
    return -1 not in bfs_distances(adjacency, 0) and -1 not in bfs_distances(reverse, 0)


def _validate(g: MobilityGraph) -> None:
    if g.n < 2:
        raise GraphValidationError("graph needs at least 2 terminals")
    if g.weights.shape != (g.n,):
        raise GraphValidationError("weights length must equal the terminal count")
    if not np.all(np.isfinite(g.weights)):
        raise GraphValidationError("weights must be finite")
    if not np.all(g.weights > 0):
        raise GraphValidationError("weight must be positive")
    for i, j in g.edges:
        if not (0 <= i < g.n and 0 <= j < g.n):
            raise GraphValidationError(f"endpoint out of range: edge ({i}, {j}) on n={g.n}")
        if i == j:
            raise GraphValidationError(f"self-loops are not allowed: ({i}, {j})")
    if g.coords is not None and g.coords.shape != (g.n, 2):
        raise GraphValidationError("coords must be an (n, 2) array")
    if g.coords is not None and not np.all(np.isfinite(g.coords)):
        raise GraphValidationError("coords must be finite")
    if not strongly_connected(g.neighbors):
        raise DisconnectedGraphError("graph is not strongly connected")


def _symmetric_edges(pairs) -> frozenset:
    out = set()
    for i, j in pairs:
        out.add((i, j))
        out.add((j, i))
    return frozenset(out)


def generate_random_geometric(n: int, r: float, seed: int) -> MobilityGraph:
    """Random geometric graph on the unit square with connection radius r.

    Points are drawn i.i.d. uniform; terminals within Euclidean distance r
    (inclusive) are joined in both directions.  If the sample is
    disconnected the generator resamples with an incremented seed, up to
    MAX_GEOMETRIC_ATTEMPTS times, then fails (the radius is too small for n).
    """
    if n < 2:
        raise GraphValidationError("graph needs at least 2 terminals")
    if r < 0 or r > math.sqrt(2) + 1e-12:
        raise GraphValidationError("radius must lie in [0, sqrt(2)]")
    for attempt in range(MAX_GEOMETRIC_ATTEMPTS):
        rng = np.random.default_rng(seed + attempt)
        pts = rng.random((n, 2))
        delta = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((delta ** 2).sum(axis=2))
        ii, jj = np.nonzero((dist <= r) & ~np.eye(n, dtype=bool))
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
    pairs = []
    for r in range(side):
        for c in range(side):
            u = r * side + c
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr == 0 and dc == 0:
                        continue
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < side and 0 <= cc < side:
                        pairs.append((u, rr * side + cc))
    meta = {"family": "grid", "seed": None, "params": {"side": side}}
    return MobilityGraph(n, _symmetric_edges(pairs), np.ones(n), None, meta)


def generate_ring_k(n: int, k: int) -> MobilityGraph:
    """Ring of n terminals where node i connects to i +- 1 .. i +- k (mod n)."""
    if n < 3:
        raise GraphValidationError("ring needs at least 3 terminals")
    if not 1 <= k <= (n - 1) // 2:
        raise GraphValidationError("neighbour radius k must satisfy 1 <= k <= (n-1)//2")
    pairs = [(i, (i + d) % n) for i in range(n) for d in range(1, k + 1)]
    meta = {"family": "ring", "seed": None, "params": {"n": n, "k": k}}
    return MobilityGraph(n, _symmetric_edges(pairs), np.ones(n), None, meta)


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
    meta = dict(g.meta)
    meta.update(extra)
    return replace(g, weights=weights, meta=meta)


def save_graph(g: MobilityGraph, path) -> None:
    meta = dict(g.meta)
    payload = {
        "n": g.n,
        "edges": sorted([i, j] for i, j in g.edges),
        "weights": [float(w) for w in g.weights],
        "coords": None if g.coords is None else [[float(x), float(y)] for x, y in g.coords],
        "meta": {
            "family": meta.pop("family", "custom"),
            "seed": meta.pop("seed", None),
            "params": meta.pop("params", {}),
            **meta,
        },
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_graph(path) -> MobilityGraph:
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise GraphValidationError(f"could not parse graph file: {exc}") from exc
    try:
        n = int(payload["n"])
        edges = frozenset((int(i), int(j)) for i, j in payload["edges"])
        weights = payload["weights"]
        coords = payload.get("coords")
        meta = payload.get("meta", {})
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphValidationError(f"malformed graph file: {exc}") from exc
    return MobilityGraph(n, edges, weights, coords, dict(meta))
