"""Bounds on the numpy memory the n x n analytics and the walk simulators allocate.

At n = 2000 every n x n float64 array is 30.5 MiB, so each temporary shows
in a process's peak memory.  These tests run at n = 600 and count the peak
of traced allocations (numpy reports its array buffers to tracemalloc) in
units of one n x n float64 array, over what was allocated before the call.
LAPACK's own work buffers are not traced.  The walk simulators hold one
chunk of slots at a time, so their peak must not grow with the horizon,
and `simulate --trace` writes its rows from the visit log.
"""

import math
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from age_patrol import (DesignResult, TransitionMatrix, analyze, assign_weights, build_mh,
                        check_irreducible, design_objective, generate_random_geometric,
                        generate_ring_k, save_graph, simulate_age_based, simulate_randomized,
                        stationary_distribution)
from age_patrol.cli import main

N = 600
RADIUS = 2.0 / math.sqrt(N)
UNIT = N * N * 8


def peak_arrays(fn) -> float:
    """Peak traced allocation of fn() in n x n float64 arrays; fn's result is held."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    del result
    return peak / UNIT


@pytest.fixture(scope="module")
def graph():
    generate_random_geometric(50, 0.5, seed=0)  # one-time lazy set-up, not counted
    return assign_weights(generate_random_geometric(N, RADIUS, seed=1), "random_interval", seed=2)


@pytest.fixture(scope="module")
def chain(graph):
    design = build_mh(graph)
    return design, analyze(design.matrix)


def test_geometric_generation_holds_two_distance_arrays(chain):
    # seed 1 resamples twice, so the count includes a discarded attempt's edges
    assert peak_arrays(lambda: generate_random_geometric(N, RADIUS, seed=1)) <= 3.0


def test_build_mh_holds_one_matrix(graph, chain):
    # the chain adopts the read-only array build_mh filled instead of copying it
    # (the fixture's first call builds the graph's cached edge index)
    assert peak_arrays(lambda: build_mh(graph)) <= 1.5


def test_design_load_adopts_the_decoded_matrix(chain):
    # the decoded array is read-only, so the chain adopts it instead of copying it
    payload = chain[0].to_json()
    assert peak_arrays(lambda: DesignResult.from_json(payload)) <= 1.2


def test_analyze_peak(chain):
    design, _ = chain
    assert peak_arrays(lambda: analyze(design.matrix)) <= 3.1


def test_slem_read_holds_no_square_copy(chain):
    # eigvals traces only the boolean n x n array of its finiteness check (1/8 of a
    # float64 array); its LAPACK work arrays are not traced
    design, _ = chain
    analysis = analyze(design.matrix)
    assert peak_arrays(lambda: analysis.slem) <= 0.25


def test_stationary_distribution_of_a_reversible_chain_builds_no_square_system(chain):
    design, _ = chain
    assert peak_arrays(lambda: stationary_distribution(design.matrix)) <= 0.5


def test_irreducibility_check_and_support_tree_of_a_dense_chain_read_one_mask():
    # the boolean support is 1/8 of a float64 array; its adjacency lists took 4.4 arrays
    p = np.random.default_rng(4).random((N, N))
    matrix = TransitionMatrix(p / p.sum(axis=1, keepdims=True))
    assert peak_arrays(lambda: (check_irreducible(matrix), matrix.support_tree)) <= 0.5


def test_validate_rebuilds_the_fundamental_system_in_row_blocks(chain):
    # a block holds 32 rows of P and the rows of Z its support touches
    _, analysis = chain
    assert peak_arrays(analysis.validate) <= 0.5


def test_design_objective_allocates_one_difference(chain):
    design, _ = chain
    assert peak_arrays(lambda: design_objective(design.matrix.p, design.target_pi)) <= 1.1


@pytest.mark.parametrize("simulator", ["age_based", "randomized"])
def test_walk_simulators_hold_one_chunk(simulator):
    # a sparse ring keeps the traced per-slot loop cheap; the runs span 4 and 31 chunks
    g = generate_ring_k(200, 1)
    matrix = build_mh(g).matrix
    runs = {"age_based": lambda horizon: simulate_age_based(g, horizon),
            "randomized": lambda horizon: simulate_randomized(g, matrix, horizon)}
    run = runs[simulator]
    assert peak_arrays(lambda: run(500_000)) <= 1.5 * peak_arrays(lambda: run(62_500))


def test_simulate_trace_holds_no_age_matrix(tmp_path):
    # the horizon x n int64 age matrix the trace was written from took 15.3 MiB here
    graph_path, trace_path = tmp_path / "g.json", tmp_path / "trace.csv"
    save_graph(generate_random_geometric(200, 2.0 / math.sqrt(200), seed=1), graph_path)
    args = ["simulate", "--graph", str(graph_path), "--policy", "mh", "--horizon", "10000",
            "--trace", str(trace_path), "-o", str(tmp_path / "runs.csv")]
    runner = CliRunner()
    peak = peak_arrays(lambda: runner.invoke(main, args, catch_exceptions=False)) * UNIT
    assert len(trace_path.read_text().splitlines()) == 10_001
    assert peak < 8 * 2**20
