"""JSON form of the four result records: exact key sets and byte-exact round trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from age_patrol import (AgeReport, AgeStats, DesignResult, DisseminationPolicy,
                        TransitionMatrix, analytic_ages, analyze, build_mh, generate_ring_k,
                        policy_from_design, simulate_randomized)

SCHEMAS = {
    AgeReport: {"per_terminal_peak", "per_terminal_avg", "network_peak", "network_avg",
                "lower_bound_avg", "upper_bound_avg", "peak_opt_value"},
    AgeStats: {"per_terminal_peak", "per_terminal_avg", "n_peaks", "network_peak",
               "network_avg", "horizon", "burn_in"},
    DesignResult: {"matrix", "target_pi", "objective", "iterations", "converged", "residuals"},
    DisseminationPolicy: {"matrix", "target_pi", "rates", "rho", "upper_bounds", "z_diag",
                          "discrepancy", "meta"},
}

finite = st.floats(allow_nan=False, allow_infinity=False)


def vectors(n, elements=finite):
    return st.lists(elements, min_size=n, max_size=n).map(np.array)


@st.composite
def stochastic_matrices(draw, n):
    rows = draw(st.lists(vectors(n, st.floats(0.0, 1.0)), min_size=n, max_size=n))
    p = np.array(rows) + np.eye(n)  # keeps every row sum positive
    return TransitionMatrix(p / p.sum(axis=1, keepdims=True))


@st.composite
def records(draw):
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(sorted(SCHEMAS, key=lambda cls: cls.__name__)))
    if kind is AgeReport:
        return AgeReport(draw(vectors(n)), draw(vectors(n)), *draw(st.tuples(*[finite] * 5)))
    if kind is AgeStats:
        counts = np.array(draw(st.lists(st.integers(0, 10**9), min_size=n, max_size=n)))
        return AgeStats(draw(vectors(n)), draw(vectors(n)), counts, draw(finite), draw(finite),
                        draw(st.integers(1, 10**9)), draw(st.integers(0, 10**9)))
    if kind is DesignResult:
        return DesignResult(draw(stochastic_matrices(n)), draw(vectors(n)),
                            draw(st.none() | finite), draw(st.integers(0, 10**6)),
                            draw(st.booleans()),
                            draw(st.dictionaries(st.text(max_size=4), finite, max_size=3)))
    return DisseminationPolicy(draw(stochastic_matrices(n)),
                               *[draw(vectors(n)) for _ in range(5)], draw(finite),
                               {"converged": draw(st.booleans()),
                                "objective": draw(st.none() | finite)})


def _arrays(record):
    return {name: getattr(record, name) for name in SCHEMAS[type(record)]
            if isinstance(getattr(record, name), (np.ndarray, TransitionMatrix))}


@settings(max_examples=200, deadline=None)
@given(records())
def test_json_round_trip_is_byte_exact(record):
    text = json.dumps(record.to_json(), sort_keys=True)
    clone = type(record).from_json(json.loads(text))
    assert json.dumps(clone.to_json(), sort_keys=True) == text
    for name, value in _arrays(record).items():
        copy = getattr(clone, name)
        if isinstance(value, TransitionMatrix):
            value, copy = value.p, copy.p
        assert copy.dtype == value.dtype and copy.tobytes() == value.tobytes(), name


def _library_records():
    g = generate_ring_k(5, 1)
    design = build_mh(g)
    analysis = analyze(design.matrix, pi=design.target_pi)
    return [analytic_ages(analysis, g.weights),
            simulate_randomized(g, design.matrix, 2000, seed=0),
            design,
            policy_from_design(design)]


def test_json_key_sets_match_the_schema():
    for record in _library_records():
        assert set(record.to_json()) == SCHEMAS[type(record)]


def test_design_payload_without_optional_keys_loads():
    payload = {"matrix": [[0.5, 0.5], [0.5, 0.5]], "target_pi": [0.5, 0.5],
               "age_report": {"network_peak": 4.0}}  # `design -o` adds the report
    design = DesignResult.from_json(payload)
    assert (design.objective, design.iterations, design.converged, design.residuals) == (
        None, 0, True, {})
    assert np.array_equal(design.matrix.p, np.full((2, 2), 0.5))
    policy = policy_from_design(design, rates=[0.25, 0.25]).to_json()
    del policy["meta"]
    assert DisseminationPolicy.from_json(policy).meta == {}


@pytest.mark.parametrize("payload, message", [
    ({}, "lacks the key 'matrix'"),
    ({"matrix": [[1.0]]}, "lacks the key 'target_pi'"),
    ({"matrix": [[1.0]], "target_pi": "uniform"}, "target_pi must be a JSON array"),
    ({"matrix": [[1.0]], "target_pi": [1.0], "iterations": "5"}, "iterations must be"),
    ({"matrix": [[1.0]], "target_pi": [1.0], "converged": 1}, "converged must be"),
    ({"matrix": [[1.0]], "target_pi": [1.0], "objective": True}, "objective must be"),
    ({"matrix": [["a"]], "target_pi": [1.0]}, "DesignResult.matrix"),
    ({"matrix": [[1.0]], "target_pi": [1.0], "objective": 10**400}, "objective"),
    ([1.0], "must be an object"),
])
def test_design_payload_errors_are_value_errors(payload, message):
    with pytest.raises(ValueError, match=message):
        DesignResult.from_json(payload)
