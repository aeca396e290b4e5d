"""Gaussian expectation layer against dense-grid and closed-form oracles."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rsbsolve import (
    BudgetExceeded,
    HopfieldParams,
    NonFiniteIntegrand,
    QuadratureSpec,
    RangeViolation,
    RsbAnsatz,
    SkParams,
    gauss_expect,
    hop_sce_krsb,
    nested_log_cosh_expect,
    nested_moments,
    sk_sce_krsb,
)
from rsbsolve import quadrature

GRID = np.linspace(-8.0, 8.0, 4001)
GRID_W = np.exp(-0.5 * GRID * GRID) / math.sqrt(2.0 * math.pi)
GRID_W /= GRID_W.sum()


def dense_log_cosh_1rsb(offset, c1, c2, theta):
    g = offset + c1 * GRID[:, None] + c2 * GRID[None, :]
    inner = (GRID_W[None, :] * np.cosh(g) ** theta).sum(axis=1)
    return math.log(2.0) + float((GRID_W * np.log(inner) / theta).sum())


def dense_ratio_1rsb(offset, c1, c2, theta, inner, square_at_level):
    g = offset + c1 * GRID[:, None] + c2 * GRID[None, :]
    w = np.cosh(g) ** theta
    kern = {"tanh": np.tanh(g), "tanh2": np.tanh(g) ** 2}[inner]
    den = (GRID_W[None, :] * w).sum(axis=1)
    num = (GRID_W[None, :] * w * kern).sum(axis=1)
    partial = num / den
    if square_at_level == 1:
        partial = partial ** 2
    return float((GRID_W * partial).sum())


def test_unit_expectation():
    assert gauss_expect(lambda h: np.ones_like(h)) == pytest.approx(1.0, abs=1e-14)


def test_second_moment():
    assert gauss_expect(lambda h: h * h) == pytest.approx(1.0, abs=1e-12)


def test_cosh_moment():
    assert gauss_expect(np.cosh) == pytest.approx(math.exp(0.5), rel=1e-13)


def test_nonfinite_integrand_raises():
    with pytest.raises(NonFiniteIntegrand):
        gauss_expect(lambda h: np.where(h > 0, np.inf, 1.0))
    with pytest.raises(NonFiniteIntegrand):
        gauss_expect(lambda h: np.full_like(h, np.nan))


def test_zero_field_gives_log_two():
    assert nested_log_cosh_expect(0.0, [0.0]) == pytest.approx(
        math.log(2.0), abs=1e-14)


def test_flat_log_cosh_is_theta_free():
    # a vanishing inner coefficient makes the weight exponent irrelevant
    base = nested_log_cosh_expect(0.7, [0.9, 0.0], thetas=[0.35])
    for theta in (0.1, 0.5, 0.99):
        val = nested_log_cosh_expect(0.7, [0.9, 0.0], thetas=[theta])
        assert val == pytest.approx(base, abs=1e-12)
    flat = nested_log_cosh_expect(0.7, [0.9])
    assert base == pytest.approx(flat, abs=1e-12)


def test_log_cosh_theta_one_against_dense_grid():
    lhs = nested_log_cosh_expect(0.3, [0.8, 0.5], thetas=[1.0])
    assert lhs == pytest.approx(dense_log_cosh_1rsb(0.3, 0.8, 0.5, 1.0),
                                abs=1e-8)


def test_log_cosh_generic_against_dense_grid():
    lhs = nested_log_cosh_expect(0.2, [0.7, 0.4], thetas=[0.45])
    assert lhs == pytest.approx(dense_log_cosh_1rsb(0.2, 0.7, 0.4, 0.45),
                                abs=1e-8)


def test_ratio_trivials():
    assert nested_moments(0.0, [0.0])[0] == pytest.approx(0.0, abs=1e-14)
    assert nested_moments(0.7, [0.0])[0] == pytest.approx(
        math.tanh(0.7), abs=1e-14)


# (inner kernel, squaring level) of the dense reference -> moment returned
_MOMENT = {("tanh", None): lambda m, qs: m,
           ("tanh", 1): lambda m, qs: qs[0],
           ("tanh2", None): lambda m, qs: qs[1]}


@pytest.mark.parametrize("inner,square", [
    ("tanh", None),
    ("tanh", 1),
    ("tanh2", None),
])
def test_ratio_generic_against_dense_grid(inner, square):
    lhs = _MOMENT[inner, square](*nested_moments(0.25, [0.7, 0.45],
                                                 thetas=[0.4]))
    rhs = dense_ratio_1rsb(0.25, 0.7, 0.45, 0.4, inner, square)
    assert lhs == pytest.approx(rhs, abs=1e-8)


def tensor_moments_2rsb(offset, coeffs, thetas, nodes):
    # direct transcription: cosh-power weights on the full 3-level tensor,
    # no log domain and no running reduction
    x, w = np.polynomial.hermite.hermgauss(nodes)
    x, w = x * math.sqrt(2.0), w / math.sqrt(math.pi)
    t1, t2 = thetas
    g = (offset + coeffs[0] * x[:, None, None] + coeffs[1] * x[None, :, None]
         + coeffs[2] * x[None, None, :])
    c3 = np.cosh(g) ** t2                      # level-3 weight
    z3 = c3 @ w
    c2 = z3 ** (t1 / t2)                       # level-2 weight
    z2 = c2 @ w
    t = np.tanh(g)
    avg3 = (c3 * t) @ w / z3                   # tanh averaged over level 3
    avg2 = (c2 * avg3) @ w / z2                # ... and over level 2
    m = float(w @ avg2)
    q1 = float(w @ avg2 ** 2)
    q2 = float(w @ ((c2 * avg3 ** 2) @ w / z2))
    q3 = float(w @ ((c2 * ((c3 * t * t) @ w / z3)) @ w / z2))
    return m, (q1, q2, q3)


def test_moments_two_levels_against_tensor_transcription():
    offset, coeffs, thetas = 0.35, [0.8, 0.5, 0.4], (0.3, 0.65)
    m, qs = nested_moments(offset, coeffs, thetas,
                           spec=QuadratureSpec(nodes_per_level=24))
    want_m, want_qs = tensor_moments_2rsb(offset, coeffs, thetas, 24)
    assert m == pytest.approx(want_m, abs=1e-12)
    assert qs == pytest.approx(want_qs, abs=1e-12)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_one_grid_pass_per_map_application(k, monkeypatch):
    calls = []
    build = quadrature._field_tensor

    def counted(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(quadrature, "_field_tensor", counted)
    spec = QuadratureSpec(nodes_per_level=16)
    thetas = tuple(np.linspace(0.3, 0.7, k))
    a = RsbAnsatz(k=k, m=0.4, qs=np.linspace(0.5, 0.8, k + 1), thetas=thetas)
    sk_sce_krsb(SkParams(beta=1.3, j0=0.4), a, spec)
    assert len(calls) == 1
    hop_sce_krsb(HopfieldParams(beta=1.1, alpha=0.1), a, spec)
    assert len(calls) == 2


@pytest.mark.parametrize("k", [1, 2, 3])
def test_collapse_invariance(k):
    # duplicating a level with zero incremental field must not move the
    # value, whatever exponent the duplicated level carries
    spec = QuadratureSpec(nodes_per_level=16)
    thetas = tuple(np.linspace(0.3, 0.7, k))
    coeffs = [0.8] + [0.25] * (k - 1)
    base_thetas = thetas[1:]
    base = nested_log_cosh_expect(0.4, coeffs, thetas=base_thetas, spec=spec)
    merged = nested_log_cosh_expect(0.4, [coeffs[0], 0.0] + coeffs[1:],
                                    thetas=thetas, spec=spec)
    assert merged == pytest.approx(base, abs=1e-12)


def test_theta_continuity():
    spec = QuadratureSpec(nodes_per_level=40)
    vals = [nested_log_cosh_expect(0.3, [0.7, 0.4], thetas=[t], spec=spec)
            for t in (0.499, 0.5, 0.501)]
    assert abs(vals[1] - vals[0]) < 1e-3
    assert abs(vals[2] - vals[1]) < 1e-3


def test_node_doubling_converged():
    lo = nested_log_cosh_expect(0.3, [0.8, 0.5], thetas=[0.6],
                                spec=QuadratureSpec(nodes_per_level=80))
    hi = nested_log_cosh_expect(0.3, [0.8, 0.5], thetas=[0.6],
                                spec=QuadratureSpec(nodes_per_level=160))
    assert abs(hi - lo) < 1e-9


def test_offset_symmetry():
    spec = QuadratureSpec(nodes_per_level=48)
    plus = nested_log_cosh_expect(0.6, [0.5, 0.3], thetas=[0.4], spec=spec)
    minus = nested_log_cosh_expect(-0.6, [0.5, 0.3], thetas=[0.4], spec=spec)
    assert plus == pytest.approx(minus, abs=1e-12)


def test_budget_exhausted_raises():
    spec = QuadratureSpec(nodes_per_level=40, mc_samples=0,
                          max_tensor_points=100)
    with pytest.raises(BudgetExceeded):
        nested_log_cosh_expect(0.2, [0.5, 0.3, 0.2], thetas=[0.3, 0.6],
                               spec=spec)


def test_monte_carlo_fallback_deterministic():
    spec = QuadratureSpec(nodes_per_level=40, mc_samples=8,
                          max_tensor_points=5000)
    a = nested_log_cosh_expect(0.2, [0.5, 0.3, 0.2], thetas=[0.3, 0.6],
                               spec=spec)
    b = nested_log_cosh_expect(0.2, [0.5, 0.3, 0.2], thetas=[0.3, 0.6],
                               spec=spec)
    assert a == b
    assert math.isfinite(a)


def test_exponent_below_floor_rejected():
    with pytest.raises(RangeViolation):
        nested_log_cosh_expect(0.2, [0.5, 0.3], thetas=[0.005])


def test_exponent_one_accepted():
    val = nested_log_cosh_expect(0.2, [0.5, 0.3], thetas=[1.0])
    assert math.isfinite(val)


@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=0.0, max_value=1.5))
def test_log_cosh_lower_bound(offset, coeff):
    # log 2 cosh(x) >= log 2 pointwise, and averaging preserves it
    assert nested_log_cosh_expect(
        offset, [coeff],
        spec=QuadratureSpec(nodes_per_level=24)) >= math.log(2.0) - 1e-12


@given(st.floats(min_value=-1.5, max_value=1.5),
       st.floats(min_value=0.0, max_value=1.2),
       st.floats(min_value=0.05, max_value=1.0))
def test_ratio_bounded_by_one(offset, coeff, theta):
    _, qs = nested_moments(offset, [coeff, 0.4], thetas=[theta],
                           spec=QuadratureSpec(nodes_per_level=24))
    val = qs[-1]
    assert -1e-12 <= val <= 1.0 + 1e-12
