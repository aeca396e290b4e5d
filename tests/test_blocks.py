"""Bit for bit checks of the block paths against one-lane transcriptions.

The Hopfield response cascade, both models' block pressures and the
finish pass of ``solve_grid`` must give every lane the bits that the
plain-float, one-point formulas give.  Each check compares raw bytes (or
``repr``) against a transcription of those formulas.

Traps that make "the same formula in numpy" round differently, counted
on seeded uniform inputs with numpy 2.4 on x86-64 with AVX-512:

- ``math.log`` differs from ``np.log`` on 231 of 200 000 inputs, so
  the pressure's logarithms stay on ``math.log``.  ``math.tanh``
  differs from ``np.tanh`` on 486 of 2000; zero-load lanes take the
  kernel at zero field coefficients (its ``np.tanh``, times weights that
  sum to 1 within an ulp), so they lie a few ulp off the one-body
  ``math.tanh``: on 22 000 seeded fields at most 5 ulp in m and 9 in
  the plateaus on 16 or 24 nodes, 3 and 6 on 48 or 80.
- Python's ``x ** 2`` differs from ``x * x`` (and ``np.square``) on 166
  of 200 000 inputs, and from ``np.power`` with an array exponent on
  10 885; ``np.float_power(x, 2)`` matched on all 200 000.
- ``np.vecdot(rows, w)`` equals a per-row ``np.dot(w, row)`` for every
  length tried (1 to 1024); ``rows @ w`` differs on 20 to 90 % of rows.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from rsbsolve import (
    HopfieldParams,
    OrderingViolation,
    QuadratureSpec,
    RangeViolation,
    RsbAnsatz,
    SkParams,
    SolveReport,
    SusceptibilityDivergence,
    hop_p_closed_form,
    hop_pressure_krsb,
    nested_log_cosh_expect,
    nested_moments,
    sk_pressure_krsb,
    solve_grid,
    stationarity_check,
)
from rsbsolve import hopfield, quadrature, solver
from rsbsolve.core import DomainError
from test_solver import _GRID_CASES

SPEC24 = QuadratureSpec(nodes_per_level=24)


# ---------------------------------------------------------------------------
# one-lane transcriptions of the formulas the block paths reproduce

def _denominators(beta, q, th):
    k = len(th)
    vals = [0.0] * (k + 1)
    vals[k] = 1.0 - beta * (1.0 - q[k])
    if vals[k] <= 0.0:
        raise SusceptibilityDivergence(
            "response denominator %r <= 0 at the innermost level" % vals[k])
    for i in range(k - 1, -1, -1):
        vals[i] = vals[i + 1] - beta * th[i] * (q[i + 1] - q[i])
        if vals[i] <= 0.0:
            raise SusceptibilityDivergence(
                "response denominator %r <= 0 at level %d" % (vals[i], i + 1))
    return vals


def _conjugates(beta, q, qd):
    ps = [beta * q[0] / qd[0] ** 2]
    for i in range(1, len(q)):
        ps.append(ps[-1] + beta * (q[i] - q[i - 1]) / (qd[i] * qd[i - 1]))
    return ps


def _sk_pressure(params, a, spec):
    q = np.asarray(a.qs, dtype=float)
    dq = np.diff(q, prepend=0.0)
    field = nested_log_cosh_expect(params.beta * params.j0 * a.m,
                                   params.beta * params.j * np.sqrt(dq),
                                   a.thetas, spec)
    th = np.concatenate([[0.0], np.asarray(a.thetas, dtype=float), [1.0]])
    bracket = 1.0 - 2.0 * q[-1] + float(np.dot(np.diff(th), q ** 2))
    overlap = 0.25 * (params.beta * params.j) ** 2 * bracket
    bias = -0.5 * params.beta * params.j0 * a.m * a.m
    return field + overlap + bias, {"field": field, "overlap_source": overlap,
                                    "bias_source": bias}


def _hop_pressure(params, a, spec):
    alpha, beta = params.alpha, params.beta
    g = beta if alpha else 0.0      # no response without a pattern layer
    qd = _denominators(g, a.qs, a.thetas)
    ps = a.ps if a.ps is not None else _conjugates(g, a.qs, qd)
    p = np.asarray(ps, dtype=float)
    field = nested_log_cosh_expect(
        beta * a.m, np.sqrt(alpha * beta * np.diff(p, prepend=0.0)),
        a.thetas, spec)
    q = np.asarray(a.qs, dtype=float)
    th = np.asarray(a.thetas, dtype=float)
    qdv = np.asarray(qd, dtype=float)
    k = a.k
    tower = 0.5 * alpha * sum(
        math.log(qdv[i + 1] / qdv[i]) / th[i] for i in range(k))
    logterm = -0.5 * alpha * math.log(qdv[k])
    qterm = 0.5 * alpha * beta * q[0] / qdv[0]
    pterm = -0.5 * alpha * beta * p[k] * (1.0 - q[k])
    mix = -0.5 * alpha * beta * sum(
        th[i] * (p[i + 1] * q[i + 1] - p[i] * q[i]) for i in range(k))
    bias = -0.5 * beta * a.m * a.m
    return field + tower + logterm + qterm + pterm + mix + bias, {
        "field": field, "response_tower": tower, "response_log": logterm,
        "overlap_source": qterm, "conjugate_source": pterm + mix,
        "bias_source": bias}


def _stationarity(pressure_fn, ansatz, step=1e-5):
    """The largest entry of ``_gradient_vector``; raises where it has
    none."""
    grad = _gradient_vector(pressure_fn, ansatz, step)
    for i, value in enumerate(grad):
        if value is None:
            raise RangeViolation(
                "no admissible finite-difference stencil for coordinate %d" % i)
    return float(np.max(np.abs(grad)))


def _gradient_vector(pressure_fn, ansatz, step=1e-5):
    """The check one coordinate at a time: central differences, the step
    halved up to eight times, else a one-sided second-order stencil; None
    for a coordinate without an admissible stencil."""
    inadmissible = (DomainError, RangeViolation, OrderingViolation)

    def at(vec):
        return pressure_fn(replace(ansatz, m=float(vec[0]),
                                   qs=tuple(vec[1:])))

    def probe(i, offset):
        vec = base.copy()
        vec[i] += offset
        try:
            return at(vec)
        except inadmissible:
            return None

    base = np.concatenate([[ansatz.m], ansatz.qs])
    f0 = None
    grad = []
    for i in range(len(base)):
        delta = float(step)
        value = None
        for _ in range(9):
            hi, lo = probe(i, delta), probe(i, -delta)
            if hi is not None and lo is not None:
                value = (hi - lo) / (2.0 * delta)
                break
            if hi is not None or lo is not None:
                sign = 1.0 if hi is not None else -1.0
                near = hi if hi is not None else lo
                far = probe(i, 2.0 * sign * delta)
                if far is not None:
                    if f0 is None:
                        f0 = at(base)
                    value = sign * (-3.0 * f0 + 4.0 * near - far) / (
                        2.0 * delta)
                    break
            delta *= 0.5
        grad.append(value)
    return grad


def _pfn(model, params, spec=None):
    if model == "sk":
        return lambda a: sk_pressure_krsb(params, a, spec).pressure
    return lambda a: hop_pressure_krsb(params, replace(a, ps=None),
                                       spec).pressure


def _ulps(a, b):
    """The largest distance in units in the last place between entries
    of two float sequences of one sign each."""
    i, j = (np.asarray(v, dtype=float).view(np.int64) for v in (a, b))
    return int(np.abs(i - j).max())


def _same(a, b):
    """Equal bits and equal type (np.float64 and float print apart)."""
    return type(a) is type(b) and np.float64(a).tobytes() == \
        np.float64(b).tobytes()


# ---------------------------------------------------------------------------
# the response cascade

@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_cascade_matches_one_lane_recursion(k):
    # 2500 lanes per depth, about half of them divergent, plus lanes
    # whose denominator is exactly zero at the innermost or outer level
    rng = np.random.default_rng(70 + k)
    th = tuple(np.sort(rng.uniform(0.05, 0.95, k)).tolist())
    beta = np.concatenate([rng.uniform(0.0, 4.0, 2498), [2.0, 4.0]])
    q = np.sort(rng.uniform(0.0, 1.0, (2500, k + 1)), axis=1)
    q[-2] = 0.5                       # 1 - 2 (1 - 0.5) = 0
    q[-1] = 0.75                      # 1 - 4 (1 - 0.75) = 0
    qd, ps, failed = hopfield._cascade(beta, q, th)
    diverged = 0
    for i in range(len(beta)):
        b, row = float(beta[i]), q[i].tolist()
        try:
            want = _denominators(b, row, th)
        except SusceptibilityDivergence as exc:
            diverged += 1
            assert type(failed[i]) is SusceptibilityDivergence
            assert str(failed[i]) == str(exc)
            assert np.isnan(qd[i]).all() and np.isnan(ps[i]).all()
            continue
        assert i not in failed
        assert qd[i].tobytes() == np.array(want).tobytes()
        assert ps[i].tobytes() == np.array(_conjugates(b, row, want)).tobytes()
    assert len(failed) == diverged and 500 < diverged < 2000
    assert "0.0 <= 0" in str(failed[len(beta) - 1])


def test_public_cascade_is_a_block_of_one():
    params = HopfieldParams(beta=1.7, alpha=0.1)
    a = RsbAnsatz(k=2, m=0.1, qs=(0.5, 0.6, 0.8), thetas=(0.3, 0.7))
    want = _conjugates(1.7, a.qs, _denominators(1.7, a.qs, a.thetas))
    assert np.array(hop_p_closed_form(params, a)).tobytes() == \
        np.array(want).tobytes()
    bad = replace(a, qs=(0.1, 0.2, 0.3))
    with pytest.raises(SusceptibilityDivergence) as exc:
        hop_p_closed_form(params, bad)
    with pytest.raises(SusceptibilityDivergence) as ref:
        _denominators(1.7, bad.qs, bad.thetas)
    assert str(exc.value) == str(ref.value)


# ---------------------------------------------------------------------------
# block pressures and map steps

def _random_points(rng, k, n):
    th = tuple(np.sort(rng.uniform(0.1, 0.9, k)).tolist())
    out = []
    for _ in range(n):
        qs = tuple(np.sort(rng.uniform(0.0, 1.0, k + 1)).tolist())
        out.append(RsbAnsatz(k=k, m=float(rng.uniform(-1.0, 1.0)), qs=qs,
                             thetas=th))
    return th, out


@pytest.mark.parametrize("k", [0, 1, 2])
def test_block_pressures_match_one_point_formulas(k):
    # thousands of lanes, term by term: a last-bit slip of one operation
    # shows in a few of them
    n = (3000, 1500, 600)[k]
    rng = np.random.default_rng(80 + k)
    th, points = _random_points(rng, k, n)
    spec = QuadratureSpec(nodes_per_level=16)
    plan = quadrature.level_plan(th, spec)
    x = np.array([(a.m,) + a.qs for a in points])
    skp = [SkParams(beta=float(b), j0=float(j0), j=float(j))
           for b, j0, j in rng.uniform((0.0, 0.0, 0.5), (3.0, 1.0, 1.5), (n, 3))]
    hop = [HopfieldParams(beta=float(b), alpha=float(al))
           for b, al in zip(rng.uniform(0.0, 3.0, n),
                            rng.choice([0.0, 0.05, 0.2], n))]
    diverged = 0
    for model, params, one, ref in (
            ("sk", skp, sk_pressure_krsb, _sk_pressure),
            ("hopfield", hop, hop_pressure_krsb, _hop_pressure)):
        mod = solver._model(model)
        got, terms, failed = mod._pressure_block(mod._lanes(params), plan, x)
        for i, (p, a) in enumerate(zip(params, points)):
            try:
                want, want_terms = ref(p, a, spec)
            except SusceptibilityDivergence as exc:
                diverged += 1
                assert str(failed[i]) == str(exc)
                continue
            assert i not in failed
            assert got[i].tobytes() == np.float64(want).tobytes()
            for name, value in want_terms.items():
                assert terms[name][i].tobytes() == \
                    np.float64(value).tobytes(), name
            if i % 50 == 0:
                assert _same(one(p, a, spec).pressure, want)
    assert 0 < diverged < n


@pytest.mark.parametrize("model", ["sk", "hopfield"])
def test_block_steps_match_blocks_of_one(model):
    # zero-load and divergent Hopfield lanes ride in the same block
    rng = np.random.default_rng(90)
    th, points = _random_points(rng, 1, 30)
    plan = quadrature.level_plan(th, SPEC24)
    x = np.array([(a.m,) + a.qs for a in points])
    if model == "sk":
        params = [SkParams(beta=float(b), j0=0.3) for b in
                  rng.uniform(0.0, 3.0, 30)]
    else:
        params = [HopfieldParams(beta=float(b), alpha=float(al)) for b, al in
                  zip(rng.uniform(0.0, 3.0, 30), rng.choice([0.0, 0.1], 30))]
    mod = solver._model(model)
    lanes, step = mod._lanes(params), mod._sce_step
    out, failed = step(lanes, plan, x)
    for i in range(len(x)):
        one, bad = step(lanes[i:i + 1], plan, x[i:i + 1])
        assert out[i].tobytes() == one[0].tobytes()
        assert (i in failed) == bool(bad)
        if bad:
            assert str(failed[i]) == str(bad[0])
        if model == "hopfield" and params[i].alpha == 0.0:
            # no pattern layer: the kernel at zero field coefficients,
            # m = tanh(beta m) and q_a = m^2 on the rule
            g = params[i].beta * points[i].m
            m, qs = nested_moments(g, np.zeros(2), th, SPEC24)
            assert out[i].tobytes() == np.array((m,) + qs).tobytes()
            m = math.tanh(g)
            assert _ulps(out[i, :1], [m]) <= 5
            assert _ulps(out[i, 1:], [m * m, m * m]) <= 9
    if model == "hopfield":
        assert failed and not all(p.alpha for p in params)


# ---------------------------------------------------------------------------
# the finish pass

# high-temperature rows end at q ~ 1e-10, where the -1e-5 probe leaves
# the admissible set and the stencil turns one-sided
_FINISH_CASES = dict(_GRID_CASES, **{
    "sk_k0_hot": ("sk", [SkParams(beta=0.5, j0=j) for j in (0.0, 0.7, 1.4)],
                  (), 80),
    "hopfield_k0_hot": ("hopfield", [HopfieldParams(beta=0.6, alpha=a)
                                     for a in (0.01, 0.1)], (), 80),
})


@pytest.mark.parametrize("case", sorted(_FINISH_CASES))
def test_finish_pass_matches_per_lane_checks(case):
    model, points, thetas, nodes = _FINISH_CASES[case]
    spec = QuadratureSpec(nodes_per_level=nodes)
    checked = 0
    for params, reports in zip(points, solve_grid(model, points, len(thetas),
                                                  thetas, spec)):
        pfn = _pfn(model, params, spec)
        for rep in reports:
            if rep.pressure is not None:
                assert _same(rep.pressure, pfn(rep.ansatz))
            if not rep.converged:
                assert rep.stationarity is None and rep.stationary is None
                continue
            want = _stationarity(pfn, rep.ansatz)
            assert _same(rep.stationarity, want)
            assert _same(stationarity_check(pfn, rep.ansatz), want)
            assert rep.stationary == (want <= 1e-5)
            if model == "hopfield" and params.alpha > 0.0:
                assert rep.ansatz.ps == hop_p_closed_form(params, rep.ansatz)
            checked += 1
    assert checked


def _finish_one(model, params, a):
    mod = solver._model(model)
    rep = SolveReport(ansatz=np.array((a.m,) + a.qs), residual=0.0,
                      iterations=1, converged=True)
    plan = quadrature.level_plan(a.thetas, SPEC24)
    return solver._finish(mod, plan, mod._lanes([params]), [0], [rep])[0]


_DELTA = 1e-5
_BOUNDARY = [
    ("m=+1", RsbAnsatz(k=0, m=1.0, qs=(0.5,))),
    ("m=-1", RsbAnsatz(k=0, m=-1.0, qs=(0.7,))),
    ("q1=0", RsbAnsatz(k=0, m=0.2, qs=(0.0,))),
    ("q1=1", RsbAnsatz(k=0, m=0.2, qs=(1.0,))),
    ("q near 0", RsbAnsatz(k=0, m=0.0, qs=(0.3 * _DELTA,))),
    ("touching plateaus", RsbAnsatz(k=1, m=0.1, qs=(0.4, 0.4),
                                    thetas=(0.5,))),
    # the middle plateau has room for neither +-1e-5 nor one side twice:
    # only a halved step is admissible
    ("halving", RsbAnsatz(k=2, m=0.1, qs=(0.4, 0.4 + 0.6 * _DELTA,
                                          0.4 + 1.2 * _DELTA),
                          thetas=(0.3, 0.6))),
    ("no stencil", RsbAnsatz(k=2, m=0.1, qs=(0.4, 0.4, 0.4),
                             thetas=(0.3, 0.6))),
]


@pytest.mark.parametrize("model", ["sk", "hopfield"])
@pytest.mark.parametrize("label,a", _BOUNDARY, ids=[b[0] for b in _BOUNDARY])
def test_boundary_stencils_take_the_fallbacks(model, label, a):
    params = (SkParams(beta=1.3, j0=0.4) if model == "sk"
              else HopfieldParams(beta=0.8, alpha=0.1))
    pfn = _pfn(model, params, SPEC24)
    rep = _finish_one(model, params, a)
    assert _same(rep.pressure, pfn(a))
    try:
        want = _stationarity(pfn, a)
    except RangeViolation as exc:
        assert label == "no stencil"
        assert rep.stationarity is None and rep.stationary is None
        with pytest.raises(RangeViolation, match=str(exc)):
            stationarity_check(pfn, a)
        return
    assert _same(rep.stationarity, want)
    assert _same(stationarity_check(pfn, a), want)
    # every coordinate, not only the largest
    assert _block_gradient(model, params, a).tobytes() == \
        np.array(_gradient_vector(pfn, a), dtype=float).tobytes()


def _block_gradient(model, params, a):
    """``solver._gradient`` of one point through the block pressure."""
    mod = solver._model(model)
    block, constants = mod._pressure_block, mod._lanes([params])
    plan = quadrature.level_plan(a.thetas, SPEC24)
    x = np.array([(a.m,) + a.qs])
    f0 = block(constants, plan, x)[0]

    def values(lane, rows):
        out = np.full(len(rows), np.nan)
        for r, row in enumerate(rows):
            try:
                RsbAnsatz(k=a.k, m=row[0], qs=row[1:], thetas=a.thetas)
            except (RangeViolation, OrderingViolation):
                continue
            v, _, failed = block(constants, plan, row[None])
            out[r] = np.nan if failed else v[0]
        return out

    return solver._gradient(values, x, f0.take, 1e-5)[0]


def test_divergent_probe_turns_the_stencil_one_sided():
    # Q = 1 - beta (1 - q) sits 0.5e-5 above zero: the -1e-5 probe of q
    # diverges, the +1e-5 and +2e-5 probes do not
    beta = 2.0
    q = 1.0 - (1.0 - 0.5 * _DELTA) / beta
    params = HopfieldParams(beta=beta, alpha=0.05)
    a = RsbAnsatz(k=0, m=0.3, qs=(q,))
    pfn = _pfn("hopfield", params, SPEC24)
    with pytest.raises(SusceptibilityDivergence):
        pfn(replace(a, qs=(q - _DELTA,)))
    rep = _finish_one("hopfield", params, a)
    want = _stationarity(pfn, a)
    assert _same(rep.stationarity, want)
    assert _same(stationarity_check(pfn, a), want)
