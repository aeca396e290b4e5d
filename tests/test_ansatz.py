"""Order-parameter container: validation, serialization, acceptance."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rsbsolve import (
    HopfieldParams,
    InterpolationPoint,
    OrderingViolation,
    QuadratureSpec,
    RangeViolation,
    RsbAnsatz,
    ShapeMismatch,
    SkParams,
    SolverOptions,
    THETA_FLOOR,
    enumerate_hopfield_pressure,
    enumerate_sk_pressure,
    extremize_theta,
    hop_p_closed_form,
    hop_pressure_krsb,
    hop_q_denominators,
    hop_sce_rs,
    interpolation_derivative_check,
    metropolis_state_trace,
    overlap_histogram,
    sk_pressure_krsb,
    sk_sce_rs,
    solve_model,
    validate_ansatz,
)

SMALL_SPEC = QuadratureSpec(nodes_per_level=12)


def test_valid_one_level():
    a = RsbAnsatz(k=1, m=0.2, qs=(0.2, 0.5), thetas=(0.4,))
    assert validate_ansatz(a) == a


def test_decreasing_plateaus_rejected():
    with pytest.raises(OrderingViolation):
        validate_ansatz(RsbAnsatz(k=1, m=0.2, qs=(0.5, 0.2), thetas=(0.4,)))


def test_flat_ansatz_valid():
    a = RsbAnsatz(k=0, m=0.0, qs=(0.3,))
    assert validate_ansatz(a).qs == (0.3,)


def test_touching_plateaus_allowed():
    validate_ansatz(RsbAnsatz(k=1, m=0.0, qs=(0.4, 0.4), thetas=(0.5,)))


def test_equal_exponents_rejected():
    with pytest.raises(OrderingViolation):
        validate_ansatz(
            RsbAnsatz(k=2, m=0.0, qs=(0.1, 0.2, 0.3), thetas=(0.5, 0.5)))


def test_decreasing_exponents_rejected():
    with pytest.raises(OrderingViolation):
        validate_ansatz(
            RsbAnsatz(k=2, m=0.0, qs=(0.1, 0.2, 0.3), thetas=(0.6, 0.3)))


def test_exponent_open_interval():
    # the container keeps exponents strictly interior; the endpoints are
    # only meaningful as the implicit outer weights
    for bad in (0.0, 1.0, -0.2, 1.1):
        with pytest.raises(RangeViolation):
            validate_ansatz(RsbAnsatz(k=1, m=0.0, qs=(0.1, 0.2),
                                      thetas=(bad,)))
    tiny = THETA_FLOOR / 2
    assert validate_ansatz(
        RsbAnsatz(k=1, m=0.0, qs=(0.1, 0.2), thetas=(tiny,))).thetas == (tiny,)


def test_overlap_range():
    with pytest.raises(RangeViolation):
        validate_ansatz(RsbAnsatz(k=0, m=0.0, qs=(1.2,)))
    with pytest.raises(RangeViolation):
        validate_ansatz(RsbAnsatz(k=0, m=0.0, qs=(-0.1,)))


def test_magnetization_range():
    with pytest.raises(RangeViolation):
        validate_ansatz(RsbAnsatz(k=0, m=1.5, qs=(0.3,)))


def test_level_count_mismatch():
    with pytest.raises(ShapeMismatch):
        validate_ansatz(RsbAnsatz(k=1, m=0.0, qs=(0.1,), thetas=(0.4,)))
    with pytest.raises(ShapeMismatch):
        validate_ansatz(RsbAnsatz(k=1, m=0.0, qs=(0.1, 0.2), thetas=()))


def test_validate_idempotent():
    a = validate_ansatz(RsbAnsatz(k=2, m=0.1, qs=[0.1, 0.3, 0.6],
                                  thetas=[0.3, 0.7]))
    b = validate_ansatz(a)
    assert b == a
    assert b.to_json() == a.to_json()


def test_json_round_trip_exact():
    a = RsbAnsatz(k=2, m=-0.125, qs=(0.1, 0.3, 0.625), thetas=(0.25, 0.75),
                  ps=(0.2, 0.4, 0.5))
    b = RsbAnsatz.from_json(a.to_json())
    assert b == a
    payload = json.loads(a.to_json())
    assert set(payload) == {"k", "m", "qs", "ps", "thetas"}


def test_from_dict_missing_key():
    with pytest.raises(ShapeMismatch):
        RsbAnsatz.from_dict({"k": 0, "m": 0.0})


def test_quadrature_spec_validation():
    with pytest.raises(RangeViolation):
        QuadratureSpec(nodes_per_level=1)
    with pytest.raises(RangeViolation):
        QuadratureSpec(max_tensor_points=0)
    spec = QuadratureSpec()
    assert spec.nodes_per_level == 80


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-3])
def test_solver_options_tol_validation(tol):
    # tol=inf used to report every start converged after one iteration,
    # tol=nan to run every start to the cap
    with pytest.raises(RangeViolation, match="tol must be finite"):
        SolverOptions(tol=tol)


def test_params_validation():
    with pytest.raises(RangeViolation):
        SkParams(beta=-0.5, j0=0.0, j=1.0)
    with pytest.raises(RangeViolation):
        HopfieldParams(beta=1.0, alpha=-0.01)


_SK = SkParams(beta=1.2, j0=0.3)
_HOP = HopfieldParams(beta=1.2, alpha=0.05)
_FLAT = RsbAnsatz(k=0, m=0.3, qs=(0.5,))
_POINT = InterpolationPoint(t=0.5, x=(0.4,), y=(0.6,), z=0.3, w=0.3)


@pytest.mark.parametrize("call,want", [
    pytest.param(lambda: solve_model("sk", _HOP), "SkParams", id="solve-sk"),
    pytest.param(lambda: solve_model("hopfield", _SK), "HopfieldParams",
                 id="solve-hopfield"),
    pytest.param(lambda: extremize_theta("sk", _HOP, 1), "SkParams",
                 id="extremize"),
    pytest.param(lambda: sk_sce_rs(_HOP, 0.3, 0.5), "SkParams", id="sk-map"),
    pytest.param(lambda: hop_sce_rs(_SK, 0.3, 0.5), "HopfieldParams",
                 id="hop-map"),
    pytest.param(lambda: sk_pressure_krsb(_HOP, _FLAT), "SkParams",
                 id="sk-pressure"),
    pytest.param(lambda: hop_pressure_krsb(_SK, _FLAT), "HopfieldParams",
                 id="hop-pressure"),
    pytest.param(lambda: hop_q_denominators(_SK, _FLAT), "HopfieldParams",
                 id="denominators"),
    pytest.param(lambda: hop_p_closed_form(_SK, _FLAT), "HopfieldParams",
                 id="conjugates"),
    pytest.param(lambda: interpolation_derivative_check(
        "sk", "t", _POINT, _HOP, n=4, samples=2), "SkParams",
        id="interpolation-sk"),
    pytest.param(lambda: interpolation_derivative_check(
        "hopfield", "t", _POINT, _SK, n=4, samples=2), "HopfieldParams",
        id="interpolation-hopfield"),
    pytest.param(lambda: enumerate_sk_pressure(_HOP, 4), "SkParams",
                 id="enumerate-sk"),
    pytest.param(lambda: enumerate_hopfield_pressure(_SK, 4),
                 "HopfieldParams", id="enumerate-hopfield"),
    # a given pattern count reads nothing but beta off the params
    pytest.param(lambda: enumerate_hopfield_pressure(_SK, 4, p=2),
                 "HopfieldParams", id="enumerate-hopfield-p"),
    pytest.param(lambda: overlap_histogram(_HOP, 4, 10), "SkParams",
                 id="histogram"),
    pytest.param(lambda: metropolis_state_trace(_HOP, 4, 10), "SkParams",
                 id="state-trace"),
    # given couplings draw no disorder sample
    pytest.param(lambda: metropolis_state_trace(
        _HOP, 4, 10, couplings=np.zeros((4, 4))), "SkParams",
        id="state-trace-couplings"),
])
def test_params_of_another_model_raise_type_error(call, want):
    with pytest.raises(TypeError, match="^params must be %s$" % want):
        call()


@st.composite
def ansatze(draw, max_k=2):
    k = draw(st.integers(min_value=0, max_value=max_k))
    m = draw(st.floats(min_value=-1.0, max_value=1.0))
    qs = sorted(
        draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                      min_size=k + 1, max_size=k + 1)))
    thetas = sorted(
        draw(st.lists(st.floats(min_value=0.05, max_value=0.95),
                      min_size=k, max_size=k, unique=True)))
    return RsbAnsatz(k=k, m=m, qs=tuple(qs), thetas=tuple(thetas))


@given(ansatze())
def test_round_trip_property(a):
    assert RsbAnsatz.from_json(a.to_json()) == a


@given(ansatze())
def test_valid_ansatz_evaluates_sk(a):
    val = sk_pressure_krsb(SkParams(beta=0.7, j0=0.2, j=1.0), a,
                           spec=SMALL_SPEC).pressure
    assert math.isfinite(val)


@given(ansatze())
def test_valid_ansatz_evaluates_hopfield(a):
    # weak load and temperature keep every response denominator positive,
    # so any admissible ansatz must produce a finite number here
    val = hop_pressure_krsb(HopfieldParams(beta=0.8, alpha=0.1), a,
                            spec=SMALL_SPEC).pressure
    assert math.isfinite(val)


def test_arrays_accepted_as_sequences():
    a = validate_ansatz(RsbAnsatz(k=1, m=0.0, qs=np.array([0.2, 0.5]),
                                  thetas=np.array([0.4])))
    assert a.qs == (0.2, 0.5)
