"""Pattern-storage model: response cascade, conjugate plateaus, pressures."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rsbsolve import (
    HopfieldParams,
    QuadratureSpec,
    RangeViolation,
    RsbAnsatz,
    SusceptibilityDivergence,
    THETA_FLOOR,
    hop_p_closed_form,
    hop_pressure_krsb,
    hop_pressure_rs,
    hop_q_denominators,
    hop_sce_krsb,
    hop_sce_rs,
)
from rsbsolve import hopfield


def test_denominator_saturated_overlap():
    qd = hop_q_denominators(HopfieldParams(beta=1.0, alpha=0.1),
                            RsbAnsatz(k=0, m=0.0, qs=(1.0,)))
    assert qd.values == pytest.approx((1.0,), abs=1e-14)


def test_denominator_boundary_raises():
    with pytest.raises(SusceptibilityDivergence):
        hop_q_denominators(HopfieldParams(beta=1.0, alpha=0.1),
                           RsbAnsatz(k=0, m=0.0, qs=(0.0,)))


def test_denominator_one_level_values():
    qd = hop_q_denominators(
        HopfieldParams(beta=2.0, alpha=0.1),
        RsbAnsatz(k=1, m=0.0, qs=(0.5, 0.8), thetas=(0.5,)))
    assert qd.values[1] == pytest.approx(0.6, abs=1e-14)
    assert qd.values[0] == pytest.approx(0.3, abs=1e-14)


def test_denominator_recursion_generic():
    beta, th = 1.4, (0.3, 0.7)
    qs = (0.2, 0.5, 0.9)
    qd = hop_q_denominators(HopfieldParams(beta=beta, alpha=0.1),
                            RsbAnsatz(k=2, m=0.0, qs=qs, thetas=th))
    q3 = 1.0 - beta * (1.0 - qs[2])
    q2 = q3 - beta * th[1] * (qs[2] - qs[1])
    q1 = q2 - beta * th[0] * (qs[1] - qs[0])
    assert qd.values == pytest.approx((q1, q2, q3), abs=1e-14)


def test_conjugate_vanishes_without_overlap():
    ps = hop_p_closed_form(HopfieldParams(beta=0.5, alpha=0.1),
                           RsbAnsatz(k=1, m=0.0, qs=(0.0, 0.0), thetas=(0.5,)))
    assert ps == pytest.approx((0.0, 0.0), abs=1e-14)


def test_conjugate_collapse_matches_flat():
    params = HopfieldParams(beta=1.2, alpha=0.1)
    q = 0.6
    ps = hop_p_closed_form(params,
                           RsbAnsatz(k=1, m=0.0, qs=(q, q), thetas=(0.4,)))
    flat = params.beta * q / (1.0 - params.beta * (1.0 - q)) ** 2
    assert ps[0] == pytest.approx(flat, abs=1e-13)
    assert ps[1] == pytest.approx(flat, abs=1e-13)


def test_conjugate_recursion_generic():
    beta, th = 1.1, (0.25, 0.6)
    qs = (0.3, 0.55, 0.85)
    params = HopfieldParams(beta=beta, alpha=0.2)
    ps = hop_p_closed_form(params, RsbAnsatz(k=2, m=0.0, qs=qs, thetas=th))
    q3 = 1.0 - beta * (1.0 - qs[2])
    q2 = q3 - beta * th[1] * (qs[2] - qs[1])
    q1 = q2 - beta * th[0] * (qs[1] - qs[0])
    p1 = beta * qs[0] / (q1 * q1)
    p2 = p1 + beta * (qs[1] - qs[0]) / (q1 * q2)
    p3 = p2 + beta * (qs[2] - qs[1]) / (q2 * q3)
    assert ps == pytest.approx((p1, p2, p3), abs=1e-12)


def test_conjugate_plateaus_ordered():
    ps = hop_p_closed_form(
        HopfieldParams(beta=1.3, alpha=0.1),
        RsbAnsatz(k=2, m=0.0, qs=(0.4, 0.6, 0.9), thetas=(0.3, 0.7)))
    assert ps[0] <= ps[1] <= ps[2]


def test_zero_load_is_one_body():
    params = HopfieldParams(beta=1.4, alpha=0.0)
    for m in (0.0, 0.3, 0.9):
        ev = hop_pressure_rs(params, m, 0.5)
        want = (math.log(2.0) + math.log(math.cosh(params.beta * m))
                - 0.5 * params.beta * m * m)
        assert ev.pressure == pytest.approx(want, abs=1e-14)


def test_zero_load_exponents_meet_the_floor():
    # the map and the pressure lay out one plan at every load, so an
    # exponent under the quadrature floor fails both alike
    params = HopfieldParams(beta=1.4, alpha=0.0)
    a = RsbAnsatz(k=1, m=0.3, qs=(0.4, 0.6), thetas=(THETA_FLOOR / 2,))
    messages = []
    for fn in (hop_sce_krsb, hop_pressure_krsb):
        with pytest.raises(RangeViolation, match="below the") as exc:
            fn(params, a)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("k", [0, 1, 2])
def test_one_cascade_at_every_load(k):
    # the public cascade runs at the lanes' response coupling (beta, or 0
    # at zero load) as the solver's does; at the real beta the zero-load
    # overlaps below would give 1 - 2 (1 - 0.1) = -0.8 and raise
    th = ((), (0.4,), (0.3, 0.7))[k]
    for alpha, low in ((0.0, 0.1), (0.05, 0.6)):
        params = HopfieldParams(beta=2.0, alpha=alpha)
        qs = tuple(low + 0.15 * i for i in range(k + 1))
        a = RsbAnsatz(k=k, m=0.5, qs=qs, thetas=th)
        qd, ps, failed = hopfield._cascade(
            hopfield._lanes([params])[:, 3], np.array([qs]), th)
        assert not failed
        assert hop_q_denominators(params, a).values == tuple(qd[0].tolist())
        assert hop_p_closed_form(params, a) == tuple(ps[0].tolist())
        if alpha == 0.0:
            assert qd[0].tolist() == [1.0] * (k + 1)
            assert ps[0].tolist() == [0.0] * (k + 1)


def test_flat_map_conjugate_is_the_closed_form_at_every_load():
    for params in (HopfieldParams(beta=2.0, alpha=0.0),
                   HopfieldParams(beta=1.2, alpha=0.05)):
        m, q, p = hop_sce_rs(params, 0.5, 0.6)
        assert p == hop_p_closed_form(params, RsbAnsatz(k=0, m=m, qs=(q,)))[0]
        assert (p == 0.0) == (params.alpha == 0.0)


def test_infinite_temperature_pressure():
    ev = hop_pressure_rs(HopfieldParams(beta=0.0, alpha=0.3), 0.0, 0.0)
    assert ev.pressure == pytest.approx(math.log(2.0), abs=1e-12)


@pytest.mark.parametrize("theta", [0.05, 0.35, 0.7, 0.95])
def test_one_level_collapse_to_flat(theta):
    params = HopfieldParams(beta=1.2, alpha=0.15)
    flat = hop_pressure_rs(params, 0.4, 0.65).pressure
    merged = hop_pressure_krsb(
        params, RsbAnsatz(k=1, m=0.4, qs=(0.65, 0.65), thetas=(theta,)))
    assert merged.pressure == pytest.approx(flat, abs=1e-10)


@pytest.mark.parametrize("theta", [0.2, 0.55, 0.9])
def test_one_level_map_collapse(theta):
    params = HopfieldParams(beta=1.2, alpha=0.15)
    m1, q1, p1 = hop_sce_rs(params, 0.4, 0.65)
    nxt = hop_sce_krsb(
        params, RsbAnsatz(k=1, m=0.4, qs=(0.65, 0.65), thetas=(theta,)))
    assert nxt.m == pytest.approx(m1, abs=1e-10)
    assert nxt.qs[0] == pytest.approx(q1, abs=1e-10)
    assert nxt.qs[1] == pytest.approx(q1, abs=1e-10)


def test_flat_map_infinite_temperature():
    m1, q1, p1 = hop_sce_rs(HopfieldParams(beta=0.0, alpha=0.2), 0.4, 0.3)
    assert m1 == pytest.approx(0.0, abs=1e-14)
    assert q1 == pytest.approx(0.0, abs=1e-14)
    assert p1 == pytest.approx(0.0, abs=1e-14)


def test_guard_on_pressure_paths():
    # every entry point must refuse the divergent response region rather
    # than return a number
    params = HopfieldParams(beta=2.0, alpha=0.1)
    flat = RsbAnsatz(k=0, m=0.1, qs=(0.2,))
    deep = RsbAnsatz(k=1, m=0.1, qs=(0.2, 0.4), thetas=(0.5,))
    for call in (
            lambda: hop_pressure_rs(params, 0.1, 0.2),
            lambda: hop_sce_rs(params, 0.1, 0.2),
            lambda: hop_pressure_krsb(params, flat),
            lambda: hop_sce_krsb(params, deep),
            lambda: hop_p_closed_form(params, deep),
    ):
        with pytest.raises(SusceptibilityDivergence):
            call()


def test_terms_decompose_pressure():
    ev = hop_pressure_rs(HopfieldParams(beta=0.8, alpha=0.1), 0.3, 0.4)
    assert sum(ev.terms.values()) == pytest.approx(ev.pressure, abs=1e-13)


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=-1.0, max_value=1.0))
def test_flat_map_stays_in_box(q, m):
    params = HopfieldParams(beta=0.9, alpha=0.2)
    m1, q1, p1 = hop_sce_rs(params, m, q,
                            spec=QuadratureSpec(nodes_per_level=24))
    assert -1.0 <= m1 <= 1.0
    assert 0.0 <= q1 <= 1.0
    assert p1 >= 0.0
    assert m1 * m1 <= q1 + 1e-12


@given(st.floats(min_value=0.3, max_value=0.95),
       st.floats(min_value=0.05, max_value=0.95))
def test_one_level_pressure_finite_in_admissible_wedge(q2, theta):
    params = HopfieldParams(beta=1.0, alpha=0.1)
    a = RsbAnsatz(k=1, m=0.2, qs=(0.3 * q2, q2), thetas=(theta,))
    ev = hop_pressure_krsb(params, a, spec=QuadratureSpec(nodes_per_level=16))
    assert math.isfinite(ev.pressure)
