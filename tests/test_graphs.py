import json
import math

import numpy as np
import pytest

from age_patrol import (DisconnectedGraphError, GraphValidationError, MobilityGraph,
                        assign_weights, generate_grid_diag, generate_random_geometric,
                        generate_ring_k, load_graph, save_graph)


def test_geometric_two_nodes_full_radius_is_complete():
    g = generate_random_geometric(2, math.sqrt(2), seed=123)
    assert g.edges == frozenset({(0, 1), (1, 0)})
    assert g.coords.shape == (2, 2)


def test_geometric_matches_reference_distance_check():
    g = generate_random_geometric(100, 0.2, seed=7)
    # independent oracle: plain python pairwise distances on the stored coords
    expected = set()
    pts = g.coords.tolist()
    for i in range(100):
        for j in range(100):
            if i != j and math.dist(pts[i], pts[j]) <= 0.2:
                expected.add((i, j))
    assert set(g.edges) == expected


def test_geometric_zero_radius_reports_disconnection():
    with pytest.raises(DisconnectedGraphError, match="disconnected after max attempts"):
        generate_random_geometric(3, 0.0, seed=1)


def test_geometric_resamples_until_connected():
    # tight radius on a moderate n: this seed needs several resamples
    g = generate_random_geometric(30, 0.3, seed=13)
    assert g.meta["params"]["attempts"] == 7
    assert g.n == 30


def test_grid_side2_is_complete():
    g = generate_grid_diag(2)
    assert g.n == 4
    assert len(g.edges) == 12  # K4, both directions


def test_grid_side3_degree_profile():
    g = generate_grid_diag(3)
    # oracle: enumerate 8-neighbour offsets per cell
    def degree(r, c):
        count = 0
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if (dr, dc) != (0, 0) and 0 <= r + dr < 3 and 0 <= c + dc < 3:
                    count += 1
        return count
    expected = {r * 3 + c: degree(r, c) for r in range(3) for c in range(3)}
    assert {i: int(g.out_degree[i]) for i in range(9)} == expected
    assert int(g.out_degree[4]) == 8  # centre
    assert int(g.out_degree[0]) == 3  # corner
    assert int(g.out_degree[1]) == 5  # edge-middle


def test_grid_side9_has_81_nodes():
    assert generate_grid_diag(9).n == 81


def test_ring_triangle():
    g = generate_ring_k(3, 1)
    assert g.n == 3
    assert all(d == 2 for d in g.out_degree)


def test_ring_21_3_degree_six():
    g = generate_ring_k(21, 3)
    assert all(d == 6 for d in g.out_degree)


def test_ring_radius_covering_all_is_complete():
    g = generate_ring_k(5, 2)
    assert len(g.edges) == 5 * 4


def test_ring_parameter_validation():
    with pytest.raises(GraphValidationError):
        generate_ring_k(5, 3)  # k > (n-1)//2


def test_assign_weights_uniform():
    g = generate_grid_diag(2)
    g = assign_weights(g, "uniform")
    assert np.array_equal(g.weights, np.ones(4))


def test_assign_weights_random_interval_range():
    g = generate_ring_k(3, 1)
    g = assign_weights(g, "random_interval", lo=1.0, hi=2.0, seed=42)
    assert np.all(g.weights > 1.0) and np.all(g.weights <= 2.0)


def test_assign_weights_rejects_nonpositive_lo():
    g = generate_ring_k(3, 1)
    with pytest.raises(GraphValidationError):
        assign_weights(g, "random_interval", lo=0.0, hi=2.0, seed=1)


def test_generators_are_symmetric_and_connected():
    for g in (generate_random_geometric(40, 0.35, seed=5),
              generate_grid_diag(4),
              generate_ring_k(9, 2)):
        assert g.is_symmetric()


def test_save_load_round_trip(tmp_path):
    g = generate_random_geometric(25, 0.45, seed=9)
    g = assign_weights(g, "random_interval", lo=1.0, hi=2.0, seed=3)
    path = tmp_path / "g.json"
    save_graph(g, path)
    loaded = load_graph(path)
    assert loaded.n == g.n
    assert loaded.edges == g.edges
    assert np.allclose(loaded.weights, g.weights)
    assert np.allclose(loaded.coords, g.coords)


def test_save_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_graph(generate_random_geometric(20, 0.4, seed=11), a)
    save_graph(generate_random_geometric(20, 0.4, seed=11), b)
    assert a.read_bytes() == b.read_bytes()


def test_load_rejects_nonpositive_weight(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "n": 2, "edges": [[0, 1], [1, 0]], "weights": [0.0, 1.0],
        "coords": None, "meta": {"family": "custom", "seed": None, "params": {}},
    }))
    with pytest.raises(GraphValidationError, match="weight must be positive"):
        load_graph(path)


def test_load_rejects_out_of_range_edge(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "n": 3, "edges": [[0, 1], [1, 0], [0, 5]], "weights": [1, 1, 1],
        "coords": None, "meta": {"family": "custom", "seed": None, "params": {}},
    }))
    with pytest.raises(GraphValidationError, match="endpoint out of range"):
        load_graph(path)


def test_load_rejects_disconnected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "n": 4, "edges": [[0, 1], [1, 0], [2, 3], [3, 2]], "weights": [1, 1, 1, 1],
        "coords": None, "meta": {"family": "custom", "seed": None, "params": {}},
    }))
    with pytest.raises(DisconnectedGraphError):
        load_graph(path)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(GraphValidationError, match="could not parse"):
        load_graph(path)


def test_graph_rejects_non_finite_weights_and_coords():
    edges = {(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)}
    for weights in ([np.inf, 1.0, 1.0], [np.nan, 1.0, 1.0]):
        with pytest.raises(GraphValidationError, match="weights must be finite"):
            MobilityGraph(3, edges, weights)
    coords = [[0.0, 0.0], [np.nan, 0.5], [1.0, np.inf]]
    with pytest.raises(GraphValidationError, match="coords must be finite"):
        MobilityGraph(3, edges, [1.0, 1.0, 1.0], coords=coords)


def test_graph_rejects_self_loop():
    with pytest.raises(GraphValidationError, match="self-loops"):
        MobilityGraph(2, {(0, 1), (1, 0), (0, 0)}, [1.0, 1.0])


def test_graph_requires_two_terminals():
    with pytest.raises(GraphValidationError):
        MobilityGraph(1, set(), [1.0])


def test_directed_graph_must_be_strongly_connected():
    # a one-way cycle is strongly connected; dropping one arc leaves a path
    # that node 0 traverses but that never leads back to it
    cycle = {(0, 1), (1, 2), (2, 0)}
    assert not MobilityGraph(3, cycle, [1.0, 1.0, 1.0]).is_symmetric()
    with pytest.raises(DisconnectedGraphError):
        MobilityGraph(3, cycle - {(2, 0)}, [1.0, 1.0, 1.0])
