"""Gaussian expectation layer against dense-grid and closed-form oracles."""

import math
import sys
import threading
import warnings

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
    hop_p_closed_form,
    hop_pressure_krsb,
    hop_pressure_rs,
    hop_sce_krsb,
    nested_log_cosh_expect,
    nested_moments,
    sk_pressure_krsb,
    sk_pressure_rs,
    sk_sce_krsb,
    solve_model,
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


def _scipy_rule(n):
    special = pytest.importorskip("scipy.special")
    x, w = special.roots_hermite(n)
    return x * math.sqrt(2.0), w / math.sqrt(math.pi)


def test_hermite_rule_matches_scipy_bitwise():
    # scipy's Golub-Welsch branch covers n <= 150; the rule repeats it
    for n in range(1, 151):
        h, w = quadrature._hermite_nodes(n)
        sh, sw = _scipy_rule(n)
        assert np.array_equal(h, sh) and np.array_equal(w, sw), n


@pytest.mark.parametrize("n", [151, 160, 300, 1024])
def test_hermite_rule_beyond_scipys_switch(n):
    # scipy switches to an asymptotic rule here; the recurrence must stay
    # finite and quiet where H_n overflows a double
    sh, sw = _scipy_rule(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        h, w = quadrature._hermite_nodes.__wrapped__(n)
    assert np.abs(h - sh).max() <= 1e-13
    assert np.abs(w - sw).max() <= 1e-13


@pytest.mark.parametrize("n", [3, 24, 80, 151, 1024])
def test_hermite_rule_moments(n):
    h, w = quadrature._hermite_nodes(n)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.dot(w, h ** 2) == pytest.approx(1.0, abs=1e-12)
    assert np.dot(w, h ** 4) == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 7, 80, 1024])
def test_hermite_rule_symmetric_and_read_only(n):
    h, w = quadrature._hermite_nodes(n)
    assert np.array_equal(h, -h[::-1])
    assert np.array_equal(w, w[::-1])
    assert not h.flags.writeable and not w.flags.writeable


def test_node_count_capped_at_rule_limit():
    with pytest.raises(RangeViolation, match="1024"):
        QuadratureSpec(nodes_per_level=1025)
    # 1024^2 = 2^20 points: the default budget's largest one-step plan
    plan = quadrature.level_plan((0.5,), QuadratureSpec(nodes_per_level=1024))
    assert [len(x) for x in plan.nodes] == [1024, 1024]


def test_unit_expectation():
    assert gauss_expect(lambda h: np.ones_like(h)) == pytest.approx(1.0, abs=1e-14)


def test_second_moment():
    assert gauss_expect(lambda h: h * h) == pytest.approx(1.0, abs=1e-12)


def test_cosh_moment():
    assert gauss_expect(np.cosh) == pytest.approx(math.exp(0.5), rel=1e-13)


def test_scalar_only_integrand_is_looped_over():
    # math.cos raises TypeError on an array instead of broadcasting
    assert gauss_expect(math.cos) == pytest.approx(math.exp(-0.5), abs=1e-13)


def test_nonfinite_integrand_raises():
    with pytest.raises(NonFiniteIntegrand):
        gauss_expect(lambda h: np.where(h > 0, np.inf, 1.0))
    with pytest.raises(NonFiniteIntegrand):
        gauss_expect(lambda h: np.full_like(h, np.nan))
    with pytest.raises(NonFiniteIntegrand):
        nested_moments(math.inf, [0.5])


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


def stack_moments(offset, coeffs, thetas, nodes):
    # transcription of the stack/sum kernel the map used before the level
    # plan: running averages stacked per level, full row max, w * exp
    x, w = np.polynomial.hermite.hermgauss(nodes)
    x, w = x * math.sqrt(2.0), w / math.sqrt(math.pi)
    levels = len(thetas) + 1
    g = np.array(offset)
    for idx, c in enumerate(coeffs):
        shape = [1] * levels
        shape[idx] = nodes
        g = g + c * x.reshape(shape)
    th = list(thetas) + [1.0]
    logn = np.abs(g) + np.log1p(np.exp(-2.0 * np.abs(g)))
    t = np.tanh(g)
    vals = np.stack([t, t ** 2])
    for b in range(levels, 1, -1):
        a = th[b - 2] / th[b - 1] * logn
        mx = a.max(axis=-1, keepdims=True)
        we = w * np.exp(a - mx)
        z = we.sum(axis=-1)
        logn = np.squeeze(mx, axis=-1) + np.log(z)
        vals = np.sum(we * vals, axis=-1) / z
        vals = np.concatenate([vals, vals[:1] * vals[:1]])
    out = [float(np.dot(w, v)) for v in vals]
    qs = np.maximum.accumulate(np.clip(out[:0:-1], 0.0, 1.0))
    return min(1.0, max(-1.0, out[0])), tuple(qs)


def _reference_map(model, params, a, nodes):
    q = np.asarray(a.qs)
    if model == "sk":
        offset = params.beta * params.j0 * a.m
        coeffs = params.beta * params.j * np.sqrt(np.diff(q, prepend=0.0))
    else:
        ps = np.asarray(hop_p_closed_form(params, a))
        offset = params.beta * a.m
        coeffs = np.sqrt(params.alpha * params.beta
                         * np.diff(ps, prepend=0.0))
    return stack_moments(offset, coeffs, a.thetas, nodes)


@pytest.mark.parametrize("k,nodes", [(0, 80), (1, 80), (2, 24)])
def test_maps_match_stack_kernel_transcription(k, nodes):
    rng = np.random.default_rng(20 + k)
    spec = QuadratureSpec(nodes_per_level=nodes)
    for _ in range(100):
        a = RsbAnsatz(k=k, m=rng.uniform(-1.0, 1.0),
                      qs=np.sort(rng.uniform(0.0, 1.0, k + 1)),
                      thetas=np.sort(rng.uniform(0.05, 0.95, k)))
        # below beta = 1 every response denominator is at least 1 - beta
        cases = [("sk", sk_sce_krsb,
                  SkParams(beta=rng.uniform(0.2, 2.5), j0=rng.uniform(0, 1.5),
                           j=rng.uniform(0.5, 1.5))),
                 ("hopfield", hop_sce_krsb,
                  HopfieldParams(beta=rng.uniform(0.2, 0.95),
                                 alpha=rng.uniform(0.01, 0.2)))]
        for model, mapping, params in cases:
            got = mapping(params, a, spec)
            m, qs = _reference_map(model, params, a, nodes)
            assert got.m == pytest.approx(m, abs=1e-14)
            assert got.qs == pytest.approx(qs, abs=1e-14)


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


def _chunked(monkeypatch, points, cpus):
    """Chunks of ``points`` grid points spread over ``cpus`` CPUs."""
    monkeypatch.setattr(quadrature, "_CHUNK_POINTS", points)
    monkeypatch.setattr(quadrature, "_cpu_count", lambda: cpus)


def _one_chunk(monkeypatch):
    monkeypatch.setattr(quadrature, "_CHUNK_POINTS", 1 << 62)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_chunked_grid_is_walked_once(k, monkeypatch):
    points = []
    build = quadrature._field_tensor

    def counted(offset, coeffs, nodes):
        points.append(len(offset) * math.prod(len(x) for x in nodes))
        return build(offset, coeffs, nodes)

    monkeypatch.setattr(quadrature, "_field_tensor", counted)
    # 3 of the 16 outer nodes per chunk, so the last chunk is short
    _chunked(monkeypatch, 3 * 16 ** k, 2)
    spec = QuadratureSpec(nodes_per_level=16)
    thetas = tuple(np.linspace(0.3, 0.7, k))
    a = RsbAnsatz(k=k, m=0.4, qs=np.linspace(0.5, 0.8, k + 1), thetas=thetas)
    sk_sce_krsb(SkParams(beta=1.3, j0=0.4), a, spec)
    assert len(points) == 6 and sum(points) == 16 ** (k + 1)
    hop_sce_krsb(HopfieldParams(beta=1.1, alpha=0.1), a, spec)
    assert len(points) == 12 and sum(points) == 2 * 16 ** (k + 1)


# (k, nodes): 7 outer nodes per chunk never divide the node count
CHUNKED_PLANS = [(0, 80), (1, 80), (2, 24), (3, 12), (2, 80), (3, 32)]


@pytest.mark.parametrize("k,nodes", CHUNKED_PLANS)
def test_chunked_log_cosh_is_bitwise(k, nodes, monkeypatch):
    rng = np.random.default_rng(40 + k)
    plan = quadrature.level_plan(tuple(np.sort(rng.uniform(0.1, 0.9, k))),
                                 QuadratureSpec(nodes_per_level=nodes))
    fields = [(rng.normal(), rng.uniform(0.0, 2.0, k + 1)) for _ in range(3)]
    _one_chunk(monkeypatch)
    want = [quadrature.plan_log_cosh(plan, *f) for f in fields]
    for cpus in (1, 2, 3):
        _chunked(monkeypatch, 7 * nodes ** k, cpus)
        assert [quadrature.plan_log_cosh(plan, *f) for f in fields] == want


@pytest.mark.parametrize("k,nodes", CHUNKED_PLANS)
def test_chunked_moments_are_bitwise(k, nodes, monkeypatch):
    rng = np.random.default_rng(50 + k)
    plan = quadrature.level_plan(tuple(np.sort(rng.uniform(0.1, 0.9, k))),
                                 QuadratureSpec(nodes_per_level=nodes))
    offset = rng.normal(size=5)
    coeffs = rng.uniform(0.0, 2.0, (5, k + 1))
    offset[2] = np.nan             # a failed lane among four finite ones
    _one_chunk(monkeypatch)
    want, want_failed = quadrature.plan_moments(plan, offset, coeffs)
    for cpus in (1, 2, 3):
        _chunked(monkeypatch, 7 * 4 * nodes ** k, cpus)
        got, failed = quadrature.plan_moments(plan, offset, coeffs)
        assert got.tobytes() == want.tobytes()
        assert failed.keys() == want_failed.keys() == {2}


def test_chunks_on_more_threads_than_cores(monkeypatch):
    # eight threads on one-node chunks, switching as often as the
    # interpreter allows: every chunk still lands in its own slice once
    plan = quadrature.level_plan((0.4,), QuadratureSpec(nodes_per_level=40))
    rng = np.random.default_rng(60)
    offset, coeffs = rng.normal(size=3), rng.uniform(0.0, 2.0, (3, 2))
    want, _ = quadrature.plan_moments(plan, offset, coeffs)
    _chunked(monkeypatch, 3 * 40, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            got, _ = quadrature.plan_moments(plan, offset, coeffs)
            assert got.tobytes() == want.tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_chunked_solve_is_bitwise(monkeypatch):
    args = ("sk", SkParams(beta=1.6, j0=0.3), 2, (0.3, 0.6),
            QuadratureSpec(nodes_per_level=13))
    _one_chunk(monkeypatch)
    want = solve_model(*args)
    # lanes leave the block as they converge, so the chunk width varies
    _chunked(monkeypatch, 5 * 13 ** 2, 2)
    got = solve_model(*args)
    assert got == want
    assert all(r.residual_history for r in got)


def _fault_at_last_node(monkeypatch, fault):
    """Make the chunk that holds the largest outer node fail, and
    return the list of threads it ran on."""
    build = quadrature._field_tensor
    where = []

    def failing(offset, coeffs, nodes):
        if nodes[0][-1] == nodes[1][-1]:     # every level has one rule
            where.append(threading.current_thread())
            fault()
        return build(offset, coeffs, nodes)

    monkeypatch.setattr(quadrature, "_field_tensor", failing)
    return where


def _injected():
    raise LookupError("injected")


def _overflow():
    np.float64(1e308) * np.float64(10.0)


KERNELS = pytest.mark.parametrize("kernel", [
    pytest.param(nested_log_cosh_expect, id="log_cosh"),
    pytest.param(nested_moments, id="moments"),
])


@KERNELS
@pytest.mark.parametrize("fault,error", [(_injected, LookupError),
                                         (_overflow, RuntimeWarning)])
@pytest.mark.parametrize("cpus", [1, 2])
def test_chunk_failure_reaches_caller(kernel, fault, error, cpus, monkeypatch):
    where = _fault_at_last_node(monkeypatch, fault)
    # 16 outer nodes in 6 chunks: the last one falls to the helper thread
    _chunked(monkeypatch, 3 * 16, cpus)
    alive = threading.active_count()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error):
            kernel(0.3, [0.8, 0.5], (0.5,), QuadratureSpec(nodes_per_level=16))
    assert (where[0] is threading.main_thread()) == (cpus == 1)
    assert threading.active_count() == alive


@KERNELS
@pytest.mark.parametrize("points", [1 << 17, 16])
def test_error_state_holds_in_every_chunk(kernel, points, monkeypatch):
    # only the outermost node's fields pass 354, where exp(-2|x|)
    # underflows; in 16 one-node chunks on two CPUs that node's chunk
    # runs on the helper thread
    where = _fault_at_last_node(monkeypatch, lambda: None)
    _chunked(monkeypatch, points, 2)
    args = (40.0, [50.0, 1.0], (0.5,), QuadratureSpec(nodes_per_level=16))
    alive = threading.active_count()
    value = kernel(*args)
    assert (where[0] is threading.main_thread()) == (points > 16)
    with np.errstate(under="raise"):
        with pytest.raises(FloatingPointError):
            kernel(*args)
    _one_chunk(monkeypatch)
    assert kernel(*args) == value
    assert threading.active_count() == alive


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
    # three levels of two nodes already need 8 points
    spec = QuadratureSpec(nodes_per_level=40, max_tensor_points=7)
    with pytest.raises(BudgetExceeded):
        nested_log_cosh_expect(0.2, [0.5, 0.3, 0.2], thetas=[0.3, 0.6],
                               spec=spec)


def test_over_budget_spec_fits_node_count():
    # 40^3 points exceed the budget, 17^3 = 4913 is the largest cube in it
    spec = QuadratureSpec(nodes_per_level=40, max_tensor_points=5000)
    fitted = QuadratureSpec(nodes_per_level=17, max_tensor_points=5000)
    args = (0.2, [0.5, 0.3, 0.2])
    assert nested_log_cosh_expect(*args, thetas=[0.3, 0.6], spec=spec) == \
        nested_log_cosh_expect(*args, thetas=[0.3, 0.6], spec=fitted)
    assert nested_moments(*args, thetas=[0.3, 0.6], spec=spec) == \
        nested_moments(*args, thetas=[0.3, 0.6], spec=fitted)


@pytest.mark.parametrize("k,nodes", [(0, 80), (1, 80), (2, 80), (3, 32),
                                     (4, 16), (5, 10), (8, 4), (19, 2)])
def test_default_plan_fits_budget(k, nodes):
    thetas = tuple(np.linspace(0.05, 0.95, k))
    plan = quadrature.level_plan(thetas)
    assert [len(x) for x in plan.nodes] == [nodes] * (k + 1)
    assert nodes ** (k + 1) <= QuadratureSpec().max_tensor_points


def test_default_plan_budget_ends_at_twenty_levels():
    with pytest.raises(BudgetExceeded):
        quadrature.level_plan(tuple(np.linspace(0.05, 0.95, 20)))


DEEP_MODELS = pytest.mark.parametrize("params,pressure,sce,flat", [
    pytest.param(SkParams(beta=1.1, j0=0.3, j=0.9), sk_pressure_krsb,
                 sk_sce_krsb, sk_pressure_rs, id="sk"),
    pytest.param(HopfieldParams(beta=1.1, alpha=0.08), hop_pressure_krsb,
                 hop_sce_krsb, hop_pressure_rs, id="hopfield"),
])


@DEEP_MODELS
def test_default_three_level_grid_is_converged(params, pressure, sce, flat):
    a = RsbAnsatz(k=3, m=0.3, qs=(0.2, 0.45, 0.6, 0.8),
                  thetas=(0.3, 0.55, 0.8))
    p = pressure(params, a).pressure
    x = sce(params, a)
    # the default budget fits 32 nodes per level at k=3
    explicit = QuadratureSpec(nodes_per_level=32)
    assert pressure(params, a, spec=explicit).pressure == p
    assert sce(params, a, explicit) == x
    for n in (28, 36):
        spec = QuadratureSpec(nodes_per_level=n, max_tensor_points=n ** 4)
        assert pressure(params, a, spec=spec).pressure == pytest.approx(
            p, abs=1e-10)
        y = sce(params, a, spec)
        assert y.m == pytest.approx(x.m, abs=1e-10)
        assert y.qs == pytest.approx(x.qs, abs=1e-10)


@pytest.mark.parametrize("k", range(1, 9))
@DEEP_MODELS
def test_default_spec_collapse_up_to_eight_levels(params, pressure, sce, flat,
                                                  k):
    # equal plateaus make every inner level an identity on any grid, so
    # the deep pressure is the flat one on the fitted node count
    thetas = tuple((i + 1.0) / (k + 1.0) for i in range(k))
    nodes = len(quadrature.level_plan(thetas).nodes[0])
    for q in (0.4, 0.9):
        a = RsbAnsatz(k=k, m=0.3, qs=(q,) * (k + 1), thetas=thetas)
        ref = flat(params, 0.3, q, spec=QuadratureSpec(nodes_per_level=nodes))
        assert pressure(params, a).pressure == pytest.approx(
            ref.pressure, abs=1e-10)


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


def test_large_field_cannot_overflow():
    # offset and coefficients far past exp's range: the log-domain kernels
    # with their end-node row max must stay finite, and the field's sign
    # dominates the average
    spec = QuadratureSpec(nodes_per_level=16)
    m, qs = nested_moments(300.0, [50.0, 50.0, 50.0], (0.3, 0.6), spec)
    assert m == pytest.approx(1.0, abs=1e-6)
    assert all(math.isfinite(q) and 0.0 <= q <= 1.0 for q in qs)
    assert qs == pytest.approx((1.0, 1.0, 1.0), abs=1e-6)
    value = nested_log_cosh_expect(300.0, [50.0, 50.0, 50.0], (0.3, 0.6),
                                   spec)
    assert math.isfinite(value)
    # each level's log-average is at least its plain average (Jensen),
    # and E log 2cosh(g) >= |E g|
    assert value >= 300.0
