import numpy as np
import pytest

from age_patrol import (MobilityGraph, TransitionMatrix, average_age_lower_bound,
                        periodic_exact_ages)

# guard rails for the exhaustive periodic-trajectory search
BRUTE_FORCE_MAX_TERMINALS = 8
BRUTE_FORCE_MAX_PERIOD = 16


def make_complete(n, weights=None):
    edges = {(i, j) for i in range(n) for j in range(n) if i != j}
    return MobilityGraph(n, edges, np.ones(n) if weights is None else weights)


def make_path(n):
    edges = set()
    for i in range(n - 1):
        edges |= {(i, i + 1), (i + 1, i)}
    return MobilityGraph(n, edges, np.ones(n))


def make_fig_tree():
    """Balanced binary tree on 7 terminals: 0-(1,2), 1-(3,4), 2-(5,6)."""
    pairs = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]
    edges = {(i, j) for i, j in pairs} | {(j, i) for i, j in pairs}
    return MobilityGraph(7, edges, np.ones(7))


def make_star(leaves=3):
    edges = set()
    for leaf in range(1, leaves + 1):
        edges |= {(0, leaf), (leaf, 0)}
    return MobilityGraph(leaves + 1, edges, np.ones(leaves + 1))


def random_chain(g, seed, hold=True):
    """Random positive transition probabilities on the graph's support.

    With hold=True every diagonal entry is positive, so the chain is
    aperiodic as well as irreducible.
    """
    rng = np.random.default_rng(seed)
    n = g.n
    p = np.zeros((n, n))
    for i in range(n):
        for j in g.neighbors[i]:
            p[i, j] = rng.uniform(0.1, 1.0)
        if hold:
            p[i, i] = rng.uniform(0.1, 1.0)
    p /= p.sum(axis=1, keepdims=True)
    return TransitionMatrix(p)


def return_time_moments(analysis, i):
    """(E[T], E[T^2]) of the return time to i: 1/pi_i and (2 z_ii - pi_i)/pi_i^2 (Kemeny-Snell)."""
    pi_i, z_ii = float(analysis.pi[i]), float(analysis.z_diag[i])
    return 1.0 / pi_i, (2.0 * z_ii - pi_i) / pi_i ** 2


def random_connected_graph(n, seed):
    """Ring backbone plus random chords: always connected, varied shape."""
    rng = np.random.default_rng(seed)
    edges = set()
    for i in range(n):
        edges |= {(i, (i + 1) % n), ((i + 1) % n, i)}
    for _ in range(n):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges |= {(int(i), int(j)), (int(j), int(i))}
    return MobilityGraph(n, edges, np.ones(n))


def list_bfs_tree(adjacency, source):
    """Reference breadth-first search: a first-in first-out queue over adjacency lists.

    ``adjacency[u]`` lists u's out-neighbours in index order.  Returns
    (order, parent) as lists: the nodes reached, each where it is first
    reached, source first, and the node each was first reached from
    (source for itself, -1 if unreachable).
    """
    parent = [-1] * len(adjacency)
    parent[source] = source
    order = [source]
    for u in order:
        for v in adjacency[u]:
            if parent[v] < 0:
                parent[v] = u
                order.append(v)
    return order, parent


def list_strongly_connected(adjacency):
    """Reference strong connectivity: list searches from node 0 on the lists and their reverse."""
    reverse = [[] for _ in adjacency]
    for u, out in enumerate(adjacency):
        for v in out:
            reverse[v].append(u)
    return -1 not in list_bfs_tree(adjacency, 0)[1] and -1 not in list_bfs_tree(reverse, 0)[1]


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
    dist = []  # hop distances, down the breadth-first tree of each terminal
    for src in range(n):
        order, parent = list_bfs_tree(nbrs, src)
        d = [0] * n  # the graph is strongly connected, so the tree spans it
        for v in order[1:]:
            d[v] = d[parent[v]] + 1
        dist.append(d)
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



@pytest.fixture
def k2():
    return make_complete(2)


@pytest.fixture
def triangle():
    return make_complete(3)


@pytest.fixture
def swap_matrix():
    return TransitionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
