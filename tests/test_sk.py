"""Pairwise-disorder model: flat and hierarchical pressures plus SCE maps."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rsbsolve import (
    QuadratureSpec,
    RsbAnsatz,
    SkParams,
    sk_pressure_krsb,
    sk_pressure_rs,
    sk_sce_krsb,
    sk_sce_rs,
    solve_model,
)

GRID = np.linspace(-10.0, 10.0, 100001)
GRID_W = np.exp(-0.5 * GRID * GRID)
GRID_W /= GRID_W.sum()


def dense_flat_pressure(params, m, q):
    g = params.beta * (params.j * math.sqrt(q) * GRID + params.j0 * m)
    field = math.log(2.0) + float((GRID_W * np.log(np.cosh(g))).sum())
    source = 0.25 * (params.beta * params.j) ** 2 * (1.0 - q) ** 2
    return field + source - 0.5 * params.beta * params.j0 * m * m


def dense_flat_map(params, m, q):
    g = params.beta * (params.j * math.sqrt(q) * GRID + params.j0 * m)
    t = np.tanh(g)
    return float((GRID_W * t).sum()), float((GRID_W * t * t).sum())


def test_infinite_temperature_pressure():
    ev = sk_pressure_rs(SkParams(beta=0.0, j0=0.0, j=1.0), 0.0, 0.0)
    assert ev.pressure == pytest.approx(math.log(2.0), abs=1e-14)


def test_annealed_origin_value():
    ev = sk_pressure_rs(SkParams(beta=1.2, j0=0.0, j=1.0), 0.0, 0.0)
    assert ev.pressure == pytest.approx(math.log(2.0) + 0.36, abs=1e-12)


def test_terms_decompose_pressure():
    ev = sk_pressure_rs(SkParams(beta=1.2, j0=0.3, j=1.0), 0.2, 0.3)
    assert set(ev.terms) == {"field", "overlap_source", "bias_source"}
    assert sum(ev.terms.values()) == pytest.approx(ev.pressure, abs=1e-13)


def test_flat_pressure_against_dense_grid():
    params = SkParams(beta=2.0, j0=0.0, j=1.0)
    q = 0.5
    for _ in range(400):
        _, q = sk_sce_rs(params, 0.0, q)
    ev = sk_pressure_rs(params, 0.0, q)
    assert ev.pressure == pytest.approx(dense_flat_pressure(params, 0.0, q),
                                        abs=1e-8)


def test_flat_map_origin():
    params = SkParams(beta=1.0, j0=0.8, j=1.0)
    m1, q1 = sk_sce_rs(params, 0.3, 0.0)
    g = params.beta * params.j0 * 0.3
    assert m1 == pytest.approx(math.tanh(g), abs=1e-12)
    assert q1 == pytest.approx(math.tanh(g) ** 2, abs=1e-12)


def test_flat_map_infinite_temperature():
    assert sk_sce_rs(SkParams(beta=0.0, j0=0.5, j=1.0), 0.4, 0.3) == (0.0, 0.0)


def test_flat_map_against_dense_grid():
    # the squared kernel converges slowest in the node count, so the
    # comparison runs on a finer deterministic grid than the default
    params = SkParams(beta=2.0, j0=0.4, j=1.0)
    got = sk_sce_rs(params, 0.3, 0.5, spec=QuadratureSpec(nodes_per_level=160))
    want = dense_flat_map(params, 0.3, 0.5)
    assert got[0] == pytest.approx(want[0], abs=1e-8)
    assert got[1] == pytest.approx(want[1], abs=1e-8)


@pytest.mark.parametrize("theta", [0.05, 0.3, 0.5, 0.8, 0.95])
def test_one_level_collapse_to_flat(theta):
    params = SkParams(beta=1.3, j0=0.4, j=1.0)
    flat = sk_pressure_rs(params, 0.25, 0.45).pressure
    merged = sk_pressure_krsb(
        params, RsbAnsatz(k=1, m=0.25, qs=(0.45, 0.45), thetas=(theta,)))
    assert merged.pressure == pytest.approx(flat, abs=1e-10)


@pytest.mark.parametrize("theta", [0.2, 0.6, 0.9])
def test_one_level_map_collapse(theta):
    params = SkParams(beta=1.3, j0=0.4, j=1.0)
    m1, q1 = sk_sce_rs(params, 0.25, 0.45)
    nxt = sk_sce_krsb(
        params, RsbAnsatz(k=1, m=0.25, qs=(0.45, 0.45), thetas=(theta,)))
    assert nxt.m == pytest.approx(m1, abs=1e-10)
    assert nxt.qs[0] == pytest.approx(q1, abs=1e-10)
    assert nxt.qs[1] == pytest.approx(q1, abs=1e-10)


def test_map_image_is_admissible():
    params = SkParams(beta=1.6, j0=0.2, j=1.0)
    a = RsbAnsatz(k=2, m=0.3, qs=(0.2, 0.4, 0.7), thetas=(0.3, 0.6))
    nxt = sk_sce_krsb(params, a, spec=QuadratureSpec(nodes_per_level=24))
    assert -1.0 <= nxt.m <= 1.0
    assert all(0.0 <= q <= 1.0 for q in nxt.qs)
    assert all(x <= y + 1e-12 for x, y in zip(nxt.qs, nxt.qs[1:]))
    assert nxt.thetas == a.thetas


@given(st.floats(min_value=-1.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.05, max_value=0.95))
def test_flat_pressure_lower_bound(m, q, shrink, theta):
    # the field term is at least log 2 and the overlap source is
    # non-negative, so only the bias source can pull the value down
    params = SkParams(beta=1.1, j0=0.6, j=1.0)
    spec = QuadratureSpec(nodes_per_level=24)
    ev = sk_pressure_rs(params, m, q, spec=spec)
    floor = math.log(2.0) - 0.5 * params.beta * params.j0
    assert ev.pressure >= floor - 1e-10
    # in depth the overlap bracket is only >= 1 - 2 q_K >= -1
    floor_k = floor - 0.25 * (params.beta * params.j) ** 2
    for k in (1, 2):
        qs = [q * shrink ** (k - i) for i in range(k + 1)]
        thetas = [theta * (i + 1) / k for i in range(k)]
        ev = sk_pressure_krsb(params, RsbAnsatz(k=k, m=m, qs=qs, thetas=thetas),
                              spec=spec)
        assert ev.pressure >= floor_k - 1e-10


@given(st.floats(min_value=0.0, max_value=1.0))
def test_flat_map_stays_in_box(q):
    params = SkParams(beta=1.8, j0=0.5, j=1.0)
    m1, q1 = sk_sce_rs(params, 0.4, q,
                       spec=QuadratureSpec(nodes_per_level=24))
    assert -1.0 <= m1 <= 1.0
    assert 0.0 <= q1 <= 1.0
    # the squared average never exceeds the average of squares
    assert m1 * m1 <= q1 + 1e-12


# An open accuracy defect of the fixed-node-count grid, expected to pass
# once the field is integrated on a grid fitted to it.

@pytest.mark.xfail(strict=True, reason="80 nodes leave 6.8e-5 of stationarity")
def test_deep_glass_branch_is_stationary():
    reports = solve_model("sk", SkParams(beta=2.5, j0=0.0, j=1.0), 0)
    assert reports[0].converged
    assert reports[0].stationarity <= 1e-5


def test_flat_plateaus_at_depth_four_match_flat_pressure():
    # the zero-increment levels are dropped, so the 16 nodes the budget
    # fits to five levels never apply
    params = SkParams(beta=1.1, j0=0.3, j=0.9)
    deep = sk_pressure_krsb(params, RsbAnsatz(k=4, m=0.3, qs=(0.9,) * 5,
                                              thetas=(0.2, 0.4, 0.6, 0.8)))
    assert abs(deep.pressure - sk_pressure_rs(params, 0.3, 0.9).pressure) \
        <= 1e-9
