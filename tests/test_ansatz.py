"""Order-parameter container: validation, serialization, acceptance."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rsbsolve import (
    HopfieldParams,
    OrderingViolation,
    QuadratureSpec,
    RangeViolation,
    RsbAnsatz,
    ShapeMismatch,
    SkParams,
    THETA_FLOOR,
    hop_pressure_krsb,
    sk_pressure_krsb,
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


def test_params_validation():
    with pytest.raises(RangeViolation):
        SkParams(beta=-0.5, j0=0.0, j=1.0)
    with pytest.raises(RangeViolation):
        HopfieldParams(beta=1.0, alpha=-0.01)


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
