import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from age_patrol import (DisconnectedGraphError, GraphValidationError, MobilityGraph,
                        assign_weights, generate_grid_diag, generate_random_geometric,
                        generate_ring_k, graphs, load_graph, save_graph)
from age_patrol.cli import EXIT_VALIDATION, main
from conftest import dense_pairs_within


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


@pytest.mark.parametrize("side", range(2, 12))
def test_grid_matches_reference_chebyshev_distance(side):
    # independent oracle: cells at Chebyshev distance 1 on the lattice
    g = generate_grid_diag(side)
    cells = [divmod(u, side) for u in range(side * side)]
    expected = {(u, v) for u, (r, c) in enumerate(cells) for v, (rr, cc) in enumerate(cells)
                if max(abs(r - rr), abs(c - cc)) == 1}
    assert set(g.edges) == expected


def test_ring_matches_reference_circular_distance():
    # independent oracle: terminals at circular distance 1..k
    for n in range(3, 40):
        for k in range(1, (n - 1) // 2 + 1):
            expected = {(i, j) for i in range(n) for j in range(n)
                        if 0 < min((i - j) % n, (j - i) % n) <= k}
            assert set(generate_ring_k(n, k).edges) == expected, (n, k)


def test_geometric_matches_reference_at_scale_radius():
    # r = 2/sqrt(n), the radius of the n=2000 analytics benchmark, on a smaller n
    n = 300
    r = 2.0 / math.sqrt(n)
    g = generate_random_geometric(n, r, seed=5)
    pts = g.coords.tolist()
    expected = {(i, j) for i in range(n) for j in range(n)
                if i != j and math.dist(pts[i], pts[j]) <= r}
    assert set(g.edges) == expected


@st.composite
def points_and_radius(draw):
    """Up to 60 points in the unit square, some on a 1/k lattice, and a radius.

    The radii include 0, sqrt(2), 1/k exactly (so lattice points sit on cell
    edges and at distance exactly r) and 1/m for the m x m cells a radius
    just above 1/(1.01 m) gets.
    """
    n = draw(st.integers(2, 60))
    k = draw(st.integers(1, 12))
    lattice = st.integers(0, k).map(lambda i: i / k)
    coordinate = st.one_of(lattice, st.floats(0.0, 1.0, exclude_max=True))
    pts = np.array(draw(st.lists(st.tuples(coordinate, coordinate), min_size=n, max_size=n)))
    r = draw(st.one_of(st.sampled_from([0.0, math.sqrt(2), 1.0 / k, 1.0 / (1.01 * k)]),
                       st.floats(0.0, math.sqrt(2))))
    return pts, r


@settings(max_examples=300, deadline=None)
@given(points_and_radius())
def test_cell_search_finds_the_pairs_of_the_distance_matrix(case):
    pts, r = case
    found = graphs._pairs_within(pts, r)
    expected = dense_pairs_within(pts, r)
    assert [side.tolist() for side in found] == [side.tolist() for side in expected]


@pytest.mark.parametrize("n, r", [(2, 0.0), (2, math.sqrt(2)), (600, 2.0 / math.sqrt(600)),
                                  (2000, 2.0 / math.sqrt(2000)), (300, math.sqrt(2)),
                                  (500, 0.1), (1000, 1.0 / 3.0)])
def test_cell_search_equals_the_distance_matrix_on_random_points(n, r):
    # (300, sqrt(2)) is one cell, so every pair is a candidate, in many batches
    for seed in range(3):
        pts = np.random.default_rng(seed).random((n, 2))
        found, expected = graphs._pairs_within(pts, r), dense_pairs_within(pts, r)
        assert [side.tolist() for side in found] == [side.tolist() for side in expected]


def test_edge_index_lists_every_edge_in_row_major_order():
    g = generate_ring_k(9, 2)
    rows, cols = g.edge_index
    assert list(zip(rows.tolist(), cols.tolist())) == sorted(g.edges)


def test_geometric_zero_radius_reports_disconnection():
    with pytest.raises(DisconnectedGraphError, match="disconnected after max attempts"):
        generate_random_geometric(3, 0.0, seed=1)


@pytest.mark.parametrize("r", [math.nan, -0.1, 1.5, math.inf])
def test_geometric_rejects_radius_outside_unit_square_diagonal(r):
    # a NaN radius used to pass the range check and fail 100 sampling attempts
    with pytest.raises(GraphValidationError, match="radius must lie"):
        generate_random_geometric(9, r, seed=0)


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


TRIANGLE = {"n": 3, "edges": [[0, 1], [1, 0], [1, 2], [2, 1], [0, 2], [2, 0]],
            "weights": [1.0, 1.0, 1.0], "coords": None,
            "meta": {"family": "custom", "seed": None, "params": {}}}


@pytest.mark.parametrize("change, message", [
    ({"n": 3.7}, r"MobilityGraph\.n must be an integer"),
    ({"n": "3"}, r"MobilityGraph\.n must be an integer"),
    ({"edges": TRIANGLE["edges"][:-1] + [[2, 0.5]]}, r"MobilityGraph\.edges: entries must be"),
    ({"edges": TRIANGLE["edges"][:-1] + [[2, False]]}, r"MobilityGraph\.edges: entries must be"),
    ({"weights": [1.0, "1", 1.0]}, r"MobilityGraph\.weights: entries must be JSON numbers"),
    ({"weights": [1.0, True, 1.0]}, r"MobilityGraph\.weights: entries must be JSON numbers"),
    ({"meta": [1]}, r"MobilityGraph\.meta must be a JSON object"),
    ({"weights": [[1.0, 1.0, 1.0]]}, r"MobilityGraph\.weights: must be a flat array"),
], ids=["fractional-n", "string-n", "fractional-endpoint", "boolean-endpoint", "string-weight",
        "boolean-weight", "list-meta", "2d-weights"])
def test_malformed_graph_file_is_a_validation_error(tmp_path, change, message):
    # numpy or int() would read each of these values as something else
    path = tmp_path / "g.json"
    path.write_text(json.dumps(TRIANGLE))
    assert load_graph(path).n == 3
    path.write_text(json.dumps(dict(TRIANGLE, **change)))
    with pytest.raises(GraphValidationError, match=message):
        load_graph(path)
    result = CliRunner().invoke(main, ["design", "--graph", str(path), "--method", "mh"])
    assert result.exit_code == EXIT_VALIDATION, result.output
    assert isinstance(result.exception, SystemExit) and "Traceback" not in result.output
    assert "malformed graph file" in result.output


def test_graph_rejects_non_finite_weights_and_coords():
    edges = {(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)}
    triangle = MobilityGraph(3, edges, [1.0, 1.0, 1.0])
    # a re-weight checks its weights as the constructor does, with the same messages
    for weights, message in (([np.inf, 1.0, 1.0], "weights must be finite"),
                             ([np.nan, 1.0, 1.0], "weights must be finite"),
                             ([0.0, 1.0, 1.0], "weight must be positive"),
                             ([-1.0, 1.0, 1.0], "weight must be positive"),
                             ([1.0, 1.0], "weights length must equal the terminal count")):
        for build in (lambda w: MobilityGraph(3, edges, w), triangle.with_weights):
            with pytest.raises(GraphValidationError, match=message):
                build(weights)
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


@pytest.mark.parametrize("n, edges", [
    (3, {(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 1.5)}),
    (2.0, {(0, 1), (1, 0)}),
    (2, {(0, 1), (1, np.float64(0.0))}),
], ids=["fractional-endpoint", "float-n", "numpy-float-endpoint"])
def test_graph_rejects_a_non_integer_count_or_endpoint(n, edges):
    # int() used to store the endpoint 1.5 as 1, and a float n raised a bare TypeError
    with pytest.raises(GraphValidationError, match="n and edge endpoints must be integers"):
        MobilityGraph(n, edges, np.ones(int(n)))


def test_numpy_integer_count_and_endpoints_are_stored_as_ints(tmp_path):
    # a numpy n used to be kept as it was, and save_graph could not write it
    g = MobilityGraph(np.int64(2), {(np.int64(0), np.int32(1)), (1, np.uint8(0))}, [1.0, 2.0])
    assert type(g.n) is int and {type(v) for pair in g.edges for v in pair} == {int}
    save_graph(g, tmp_path / "g.json")
    loaded = load_graph(tmp_path / "g.json")
    assert loaded.n == 2 and loaded.edges == {(0, 1), (1, 0)}


def test_reweighting_shares_the_checked_edge_set(monkeypatch):
    g = generate_random_geometric(30, 0.4, seed=2)
    searches = []
    monkeypatch.setattr(graphs, "strongly_connected", lambda mask: searches.append(mask) or True)
    for h in (g.with_weights(np.full(30, 2.0)), assign_weights(g, "uniform"),
              assign_weights(g, "random_interval", seed=1)):
        assert searches == []
        assert h.edges is g.edges and h.coords is g.coords
        assert h.edge_index is g.edge_index and h.adjacency is g.adjacency
        assert not h.weights.flags.writeable
    assert np.array_equal(g.weights, np.ones(30))
    MobilityGraph(g.n, g.edges, g.weights)  # a construction still searches
    assert len(searches) == 1


def test_reweighting_drops_the_old_weights_provenance(tmp_path):
    plain = generate_ring_k(7, 1)
    g = assign_weights(plain, "random_interval", seed=3)
    assert g.meta == dict(plain.meta, weights_mode="random_interval", weights_lo=1.0,
                          weights_hi=2.0, weights_seed=3)
    # a re-weight used to keep weights_mode random_interval and weights_seed 3
    h = g.with_weights(np.ones(7))
    assert h.meta == plain.meta
    save_graph(h, tmp_path / "h.json")
    assert load_graph(tmp_path / "h.json").meta == plain.meta
    assert assign_weights(g, "uniform").meta == dict(plain.meta, weights_mode="uniform")
    assert g.meta["weights_seed"] == 3  # the source keeps its own
