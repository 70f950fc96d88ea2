import numpy as np
import pytest

from age_patrol import MobilityGraph, TransitionMatrix


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


@pytest.fixture
def k2():
    return make_complete(2)


@pytest.fixture
def triangle():
    return make_complete(3)


@pytest.fixture
def swap_matrix():
    return TransitionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
