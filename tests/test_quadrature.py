"""Gaussian expectation layer against dense-grid and closed-form oracles."""

import hashlib
import math
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


def _chunked(monkeypatch, points):
    """Chunks of ``points`` grid points."""
    monkeypatch.setattr(quadrature, "_CHUNK_POINTS", points)


def _one_chunk(monkeypatch):
    monkeypatch.setattr(quadrature, "_CHUNK_POINTS", 1 << 62)


def _counted_points(monkeypatch):
    """The grid points of every field tensor built from now on."""
    points = []
    build = quadrature._field_tensor

    def counted(offset, coeffs, nodes):
        points.append(len(offset) * math.prod(len(x) for x in nodes))
        return build(offset, coeffs, nodes)

    monkeypatch.setattr(quadrature, "_field_tensor", counted)
    return points


@pytest.mark.parametrize("kernel", ["plan_moments", "plan_log_cosh"])
def test_lanes_split_when_one_outer_node_overflows_a_chunk(kernel, monkeypatch):
    # a chunk of 3 lanes' outer-node sub-grids: 7 lanes go in 3 groups,
    # no chunk exceeds the budget, every point is walked once and the
    # numbers are the one-chunk numbers
    plan = quadrature.level_plan((0.4,), QuadratureSpec(nodes_per_level=20))
    rng = np.random.default_rng(61)
    offset, coeffs = rng.normal(size=7), rng.uniform(0.0, 2.0, (7, 2))
    fn = getattr(quadrature, kernel)
    _one_chunk(monkeypatch)
    want, _ = fn(plan, offset, coeffs)
    points = _counted_points(monkeypatch)
    _chunked(monkeypatch, 3 * 20)
    got, failed = fn(plan, offset, coeffs)
    assert got.tobytes() == want.tobytes() and not failed
    assert max(points) <= 3 * 20 and sum(points) == 7 * 20 * 20


@pytest.mark.parametrize("k", [0, 1, 2])
def test_chunked_grid_is_walked_once(k, monkeypatch):
    points = _counted_points(monkeypatch)
    # 3 of the 16 outer nodes per chunk, so the last chunk is short
    _chunked(monkeypatch, 3 * 16 ** k)
    spec = QuadratureSpec(nodes_per_level=16)
    thetas = tuple(np.linspace(0.3, 0.7, k))
    a = RsbAnsatz(k=k, m=0.4, qs=np.linspace(0.5, 0.8, k + 1), thetas=thetas)
    sk_sce_krsb(SkParams(beta=1.3, j0=0.4), a, spec)
    assert len(points) == 6 and sum(points) == 16 ** (k + 1)
    hop_sce_krsb(HopfieldParams(beta=1.1, alpha=0.1), a, spec)
    assert len(points) == 12 and sum(points) == 2 * 16 ** (k + 1)


# (k, nodes): 7 outer nodes per chunk never divide the node count
CHUNKED_PLANS = [(0, 80), (1, 80), (2, 24), (3, 12), (2, 80), (3, 32)]


def _wide_lanes(rng, count, k):
    """Lanes whose fields are too wide for any grid to be cheaper than
    the tensor grid, at every plan of ``CHUNKED_PLANS``."""
    return rng.normal(size=count), rng.uniform(8.0, 10.0, (count, k + 1))


def _walks_chunked_tensor(monkeypatch, kernel, plan, offset, coeffs, budget):
    """Run ``kernel`` on lanes that walk the tensor grid and check that
    every point was walked once, in chunks of at most ``budget``."""
    points = _counted_points(monkeypatch)
    kernel(plan, offset, coeffs)
    tensor = len(offset) * math.prod(len(x) for x in plan.nodes)
    assert sum(points) == tensor and max(points) <= budget < tensor


@pytest.mark.parametrize("k,nodes", CHUNKED_PLANS)
def test_chunked_log_cosh_is_bitwise(k, nodes, monkeypatch):
    rng = np.random.default_rng(40 + k)
    plan = quadrature.level_plan(tuple(np.sort(rng.uniform(0.1, 0.9, k))),
                                 QuadratureSpec(nodes_per_level=nodes))
    offset = rng.normal(size=3)
    coeffs = rng.uniform(0.0, 2.0, (3, k + 1))
    # three lanes on the tensor grid beside three that may take grids
    wide = _wide_lanes(rng, 3, k)
    offset, coeffs = np.r_[offset, wide[0]], np.r_[coeffs, wide[1]]
    budget = 7 * 3 * nodes ** k
    _one_chunk(monkeypatch)
    want, _ = quadrature.plan_log_cosh(plan, offset, coeffs)
    _chunked(monkeypatch, budget)
    got, failed = quadrature.plan_log_cosh(plan, offset, coeffs)
    assert got.tobytes() == want.tobytes() and not failed
    _walks_chunked_tensor(monkeypatch, quadrature.plan_log_cosh, plan, *wide,
                          budget)


@pytest.mark.parametrize("k,nodes", CHUNKED_PLANS)
def test_chunked_moments_are_bitwise(k, nodes, monkeypatch):
    rng = np.random.default_rng(50 + k)
    plan = quadrature.level_plan(tuple(np.sort(rng.uniform(0.1, 0.9, k))),
                                 QuadratureSpec(nodes_per_level=nodes))
    offset = rng.normal(size=5)
    coeffs = rng.uniform(0.0, 2.0, (5, k + 1))
    offset[2] = np.nan             # a failed lane among four finite ones
    # three lanes on the tensor grid beside those that may take grids
    wide = _wide_lanes(rng, 3, k)
    offset, coeffs = np.r_[offset, wide[0]], np.r_[coeffs, wide[1]]
    budget = 7 * 4 * nodes ** k
    _one_chunk(monkeypatch)
    want, want_failed = quadrature.plan_moments(plan, offset, coeffs)
    _chunked(monkeypatch, budget)
    got, failed = quadrature.plan_moments(plan, offset, coeffs)
    assert got.tobytes() == want.tobytes()
    assert failed.keys() == want_failed.keys() == {2}
    _walks_chunked_tensor(monkeypatch, quadrature.plan_moments, plan, *wide,
                          budget)


def test_chunked_solve_is_bitwise(monkeypatch):
    args = ("sk", SkParams(beta=1.6, j0=0.3), 2, (0.3, 0.6),
            QuadratureSpec(nodes_per_level=13))
    _one_chunk(monkeypatch)
    want = solve_model(*args)
    # lanes leave the block as they converge, so the chunk width varies
    _chunked(monkeypatch, 5 * 13 ** 2)
    got = solve_model(*args)
    assert got == want
    assert all(r.residual_history for r in got)


def _fault_at_last_node(monkeypatch, fault):
    """Make the chunk that holds the largest outer node fail, and
    return the list of its outer-node counts, one per run."""
    build = quadrature._field_tensor
    where = []

    def failing(offset, coeffs, nodes):
        if nodes[0][-1] == nodes[1][-1]:     # every level has one rule
            where.append(len(nodes[0]))
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
def test_coefficient_count_error_prints_plain_floats(kernel):
    # the message used to show [np.float64(1.0), np.float64(2.0)]
    with pytest.raises(RangeViolation,
                       match=r"got \[1\.0, 2\.0\] for 1 levels"):
        kernel(0.1, [1.0, 2.0])


@KERNELS
@pytest.mark.parametrize("fault,error", [(_injected, LookupError),
                                         (_overflow, RuntimeWarning)])
@pytest.mark.parametrize("size", [1, 2])
def test_chunk_failure_reaches_caller(kernel, fault, error, size, monkeypatch):
    where = _fault_at_last_node(monkeypatch, fault)
    # 16 outer nodes in chunks of ``size``: the last one fails
    _chunked(monkeypatch, size * 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error):
            kernel(0.3, [0.8, 0.5], (0.5,), QuadratureSpec(nodes_per_level=16))
    assert where == [size]


@KERNELS
@pytest.mark.parametrize("points", [1 << 17, 16])
def test_error_state_holds_in_every_chunk(kernel, points, monkeypatch):
    # only the outermost node's fields pass 354, where exp(-2|x|)
    # underflows; in 16 one-node chunks that node has a chunk of its own
    where = _fault_at_last_node(monkeypatch, lambda: None)
    _chunked(monkeypatch, points)
    args = (40.0, [50.0, 1.0], (0.5,), QuadratureSpec(nodes_per_level=16))
    value = kernel(*args)
    assert where == [1 if points == 16 else 16]
    with np.errstate(under="raise"):
        with pytest.raises(FloatingPointError):
            kernel(*args)
    _one_chunk(monkeypatch)
    assert kernel(*args) == value


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


def _tensor_only(monkeypatch):
    """Every level of every lane at its exact points."""
    monkeypatch.setattr(quadrature, "_exact_depth",
                        lambda plan, offset, coeffs: np.full(len(coeffs),
                                                             len(plan.thetas)))


def _full_grid(monkeypatch, coeffs):
    """Every lane on its plan's whole tensor grid, zero levels included:
    returns ``coeffs`` with each exact zero made the smallest subnormal,
    so that no level is dropped.  That moves no field, since every field
    here is far above 1e-300, so the rows are bit for bit those of the
    zero coefficients on the whole grid."""
    _tensor_only(monkeypatch)
    return np.where(coeffs == 0.0, 5e-324, coeffs)


PLAN_KERNELS = pytest.mark.parametrize("kernel", ["plan_moments",
                                                  "plan_log_cosh"])

# (k, interior columns with a zero coefficient): the innermost level, a
# middle one and every interior level
ZERO_LEVELS = [(1, (1,)), (2, (2,)), (2, (1,)), (2, (1, 2)), (3, (3,)),
               (3, (2,)), (3, (1, 2, 3)), (4, (4,)), (4, (2,)),
               (4, (1, 2, 3, 4))]


@pytest.mark.parametrize("k,zeros", ZERO_LEVELS)
def test_zero_levels_dropped_as_on_the_full_grid(k, zeros, monkeypatch):
    # on a grid the budget does not cut, the reduced hierarchy has the
    # same nodes as the full one, so both kernels agree to rounding and
    # a dropped level's plateau is copied from its inner neighbour
    spec = QuadratureSpec(nodes_per_level=12, max_tensor_points=12 ** (k + 1))
    plan = quadrature.level_plan(tuple(np.linspace(0.2, 0.8, k)), spec)
    rng = np.random.default_rng(70 + k)
    offset, coeffs = rng.normal(size=4), rng.uniform(0.2, 1.2, (4, k + 1))
    coeffs[:, list(zeros)] = 0.0
    points = _counted_points(monkeypatch)
    value, failed = quadrature.plan_log_cosh(plan, offset, coeffs)
    x, failed_x = quadrature.plan_moments(plan, offset, coeffs)
    assert not failed and not failed_x
    assert sum(points) == 2 * 4 * 12 ** (k + 1 - len(zeros))
    for a in zeros:
        assert np.array_equal(x[:, a], x[:, a + 1])
    full = _full_grid(monkeypatch, coeffs)
    want, _ = quadrature.plan_log_cosh(plan, offset, full)
    want_x, _ = quadrature.plan_moments(plan, offset, full)
    assert sum(points) == 2 * 4 * 12 ** (k + 1 - len(zeros)) \
        + 2 * 4 * 12 ** (k + 1)
    assert np.abs(value - want).max() <= 1e-13
    assert np.abs(x - want_x).max() <= 1e-13


def test_collapsed_hierarchy_is_one_level(monkeypatch):
    # equal plateaus at k=3 on the default spec: one level of 80 nodes,
    # not the 32^4 points the budget fits to four levels
    points = _counted_points(monkeypatch)
    params = SkParams(beta=1.1, j0=0.3, j=0.9)
    a = RsbAnsatz(k=3, m=0.3, qs=(0.6,) * 4, thetas=(0.25, 0.5, 0.75))
    deep = sk_pressure_krsb(params, a).pressure
    assert points == [80]
    assert deep == pytest.approx(sk_pressure_rs(params, 0.3, 0.6).pressure,
                                 abs=1e-14)


@PLAN_KERNELS
def test_failed_lanes_of_a_reduced_group(kernel):
    # a non-finite field and an overflowing one among lanes that share
    # their zero level keep their own failure
    plan = quadrature.level_plan((0.3, 0.6), QuadratureSpec(nodes_per_level=16))
    offset = np.array([0.3, np.nan, 0.2, 0.1])
    coeffs = np.array([[0.5, 0.0, 0.4], [0.5, 0.0, 0.4], [0.7, 0.0, 0.2],
                       [1e308, 0.0, 0.4]])
    fn = getattr(quadrature, kernel)
    with np.errstate(over="ignore", invalid="ignore"):
        got, failed = fn(plan, offset, coeffs)
    assert sorted(failed) == [1, 3]
    assert all(isinstance(e, NonFiniteIntegrand) for e in failed.values())
    assert np.isnan(got[[1, 3]]).all() and np.isfinite(got[[0, 2]]).all()
    one, _ = fn(plan, offset[[2]], coeffs[[2]])
    assert got[2].tobytes() == one[0].tobytes()


@PLAN_KERNELS
def test_plain_lanes_of_a_mixed_block_are_bitwise(kernel, monkeypatch):
    plan = quadrature.level_plan((0.3, 0.6), QuadratureSpec(nodes_per_level=24))
    rng = np.random.default_rng(77)
    offset, coeffs = rng.normal(size=6), rng.uniform(0.2, 1.2, (6, 3))
    coeffs[1, 1] = coeffs[4, 1:] = 0.0
    plain = [0, 2, 3, 5]
    fn = getattr(quadrature, kernel)
    got, _ = fn(plan, offset, coeffs)
    want, _ = fn(plan, offset, _full_grid(monkeypatch, coeffs))
    assert got[plain].tobytes() == want[plain].tobytes()
    assert np.abs(got - want).max() <= 1e-13


@PLAN_KERNELS
@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e308])
@pytest.mark.parametrize("lane", [0, 3])
def test_unbounded_lanes_stay_off_the_kernel(kernel, k, value, lane,
                                             monkeypatch):
    # a NaN, an infinity or 1e308 in the offset or any coefficient of the
    # first or last lane fails that lane alone and never reaches the
    # kernel, without a RuntimeWarning (made an error here), and the
    # other lanes keep their bits
    plan = quadrature.level_plan(tuple(np.linspace(0.2, 0.8, k)),
                                 QuadratureSpec(nodes_per_level=16))
    rng = np.random.default_rng(120 + k)
    offset, coeffs = rng.normal(size=4), rng.uniform(0.2, 1.2, (4, k + 1))
    fn = getattr(quadrature, kernel)
    want, _ = fn(plan, offset, coeffs)
    seen = []
    nested = quadrature._nested

    def spy(plan, offset, coeffs, moments):
        seen.append(np.abs(np.r_[offset, coeffs.ravel()]).max())
        return nested(plan, offset, coeffs, moments)

    monkeypatch.setattr(quadrature, "_nested", spy)
    others = [i for i in range(4) if i != lane]
    for column in range(k + 2):         # the offset, then each coefficient
        bad_offset, bad_coeffs = offset.copy(), coeffs.copy()
        if column == 0:
            bad_offset[lane] = value
        else:
            bad_coeffs[lane, column - 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got, failed = fn(plan, bad_offset, bad_coeffs)
        assert list(failed) == [lane]
        assert isinstance(failed[lane], NonFiniteIntegrand)
        assert np.isnan(got[lane]).all()
        assert got[others].tobytes() == want[others].tobytes()
    assert len(seen) >= k + 2 and max(seen) < 10.0


def _model_fields(rng, count, k):
    """Field offsets and coefficients as the SK and Hopfield maps build
    them at ``count`` random points each, then ``count`` lanes with
    coefficients up to 3, whose grids are the widest."""
    offset, coeffs = [], []
    for _ in range(count):
        a = RsbAnsatz(k=k, m=rng.uniform(-1.0, 1.0),
                      qs=np.sort(rng.uniform(0.0, 1.0, k + 1)),
                      thetas=np.sort(rng.uniform(0.05, 0.95, k)))
        sk = SkParams(beta=rng.uniform(0.3, 1.6), j0=rng.uniform(0.0, 1.0),
                      j=rng.uniform(0.6, 1.2))
        offset.append(sk.beta * sk.j0 * a.m)
        coeffs.append(sk.beta * sk.j * np.sqrt(np.diff(a.qs, prepend=0.0)))
        hop = HopfieldParams(beta=rng.uniform(0.3, 0.95),
                             alpha=rng.uniform(0.01, 0.3))
        ps = np.asarray(hop_p_closed_form(hop, a))
        offset.append(hop.beta * a.m)
        coeffs.append(np.sqrt(hop.alpha * hop.beta
                              * np.diff(ps, prepend=0.0)))
    offset += list(rng.normal(size=count))
    coeffs += list(rng.uniform(0.05, 3.0, (count, k + 1)))
    return np.array(offset), np.array(coeffs)


# (k, nodes) of the default plans at depths 2..4
GRID_PLANS = pytest.mark.parametrize("k,nodes", [(2, 80), (3, 32), (4, 16)])


@PLAN_KERNELS
@GRID_PLANS
def test_grid_levels_match_the_tensor_grid(kernel, k, nodes, monkeypatch):
    # every lane runs a level on a grid, and both kernels agree with the
    # whole tensor grid of the same rule
    plan = quadrature.level_plan(tuple(np.linspace(0.15, 0.85, k)),
                                 QuadratureSpec(nodes_per_level=nodes))
    offset, coeffs = _model_fields(np.random.default_rng(90 + k), 3, k)
    assert (quadrature._exact_depth(plan, offset, coeffs) < k).all()
    fn = getattr(quadrature, kernel)
    got, failed = fn(plan, offset, coeffs)
    _tensor_only(monkeypatch)
    want, want_failed = fn(plan, offset, coeffs)
    assert not failed and not want_failed
    assert np.abs(got - want).max() <= 1e-13


@PLAN_KERNELS
@pytest.mark.parametrize("k,nodes", [(0, 80), (1, 80), (2, 24), (2, 80),
                                     (3, 32)])
def test_exact_lanes_are_the_tensor_grid(kernel, k, nodes, monkeypatch):
    # a block at depth <= 1 or on 24 nodes never builds a grid, and a
    # lane whose grids would cost more than the tensor grid is bit for
    # bit the tensor grid's, beside lanes that take grids
    plan = quadrature.level_plan(tuple(np.linspace(0.15, 0.85, k)),
                                 QuadratureSpec(nodes_per_level=nodes))
    rng = np.random.default_rng(95 + k)
    offset, coeffs = _model_fields(rng, 2, k)
    wide = _wide_lanes(rng, 2, k)
    # and a lane of narrow fields far out, where floats are too coarse
    # for a grid
    offset = np.r_[offset, wide[0], 1e10]
    coeffs = np.r_[coeffs, wide[1], coeffs[:1]]
    exact = slice(-3, None)
    fn = getattr(quadrature, kernel)
    if k <= 1 or nodes == 24:
        monkeypatch.setattr(quadrature, "_grid_rows", None)
    else:
        depth = quadrature._exact_depth(plan, offset, coeffs)
        assert (depth[exact] == k).all() and (depth[:-3] < k).all()
    got, _ = fn(plan, offset, coeffs)
    _tensor_only(monkeypatch)
    want, _ = fn(plan, offset, coeffs)
    assert got[exact].tobytes() == want[exact].tobytes()
    if k <= 1 or nodes == 24:
        assert got.tobytes() == want.tobytes()


@PLAN_KERNELS
@GRID_PLANS
def test_grid_lanes_of_a_mixed_block_are_bitwise(kernel, k, nodes):
    # grids of different widths are padded to the block's, beside a
    # tensor lane and a failed one: each row is its block of one's
    plan = quadrature.level_plan(tuple(np.linspace(0.15, 0.85, k)),
                                 QuadratureSpec(nodes_per_level=nodes))
    rng = np.random.default_rng(100 + k)
    offset, coeffs = _model_fields(rng, 2, k)
    wide = _wide_lanes(rng, 1, k)
    offset, coeffs = np.r_[offset, wide[0], 0.2], np.r_[coeffs, wide[1],
                                                         coeffs[:1]]
    offset[-1] = np.nan
    depth = quadrature._exact_depth(plan, offset[:-1], coeffs[:-1])
    assert len(set(depth.tolist())) > 1
    fn = getattr(quadrature, kernel)
    got, failed = fn(plan, offset, coeffs)
    assert list(failed) == [len(offset) - 1]
    for i in range(len(offset) - 1):
        one, _ = fn(plan, offset[i:i + 1], coeffs[i:i + 1])
        assert got[i].tobytes() == one[0].tobytes()


@PLAN_KERNELS
@GRID_PLANS
@pytest.mark.parametrize("column,value", [(None, np.nan), (1, np.inf),
                                          (0, 1e308)])
def test_failed_lanes_beside_grid_lanes(kernel, k, nodes, column, value):
    # a NaN offset, an infinite coefficient or a field past the largest
    # double fails without a RuntimeWarning (the suite makes one an
    # error), and the grid lanes keep their rows and those of blocks of
    # one
    plan = quadrature.level_plan(tuple(np.linspace(0.15, 0.85, k)),
                                 QuadratureSpec(nodes_per_level=nodes))
    offset, coeffs = _model_fields(np.random.default_rng(110 + k), 1, k)
    assert (quadrature._exact_depth(plan, offset, coeffs) < k).all()
    fn = getattr(quadrature, kernel)
    want, _ = fn(plan, offset, coeffs)
    for i in range(len(offset)):
        one, _ = fn(plan, offset[i:i + 1], coeffs[i:i + 1])
        assert want[i].tobytes() == one[0].tobytes()
    bad_offset, bad_coeffs = 0.1, coeffs[0].copy()
    if column is None:
        bad_offset = value
    else:
        bad_coeffs[column] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got, failed = fn(plan, np.r_[offset, bad_offset],
                         np.r_[coeffs, bad_coeffs[None]])
    assert list(failed) == [len(offset)]
    assert isinstance(failed[len(offset)], NonFiniteIntegrand)
    assert np.isnan(got[-1]).all()
    assert got[:-1].tobytes() == want.tobytes()


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
    # equal plateaus make every inner level an identity, so the deep
    # pressure is evaluated as the flat one on ``nodes_per_level`` nodes
    thetas = tuple((i + 1.0) / (k + 1.0) for i in range(k))
    for q in (0.4, 0.9):
        a = RsbAnsatz(k=k, m=0.3, qs=(q,) * (k + 1), thetas=thetas)
        ref = flat(params, 0.3, q)
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


@pytest.mark.parametrize("k", [0, 1, 2])
def test_blocks_of_no_lanes(k):
    plan = quadrature.level_plan(tuple(np.linspace(0.3, 0.7, k)),
                                 QuadratureSpec(nodes_per_level=16))
    x, failed = quadrature.plan_moments(plan, np.zeros(0), np.zeros((0, k + 1)))
    assert x.shape == (0, k + 2) and failed == {}
    v, failed = quadrature.plan_log_cosh(plan, np.zeros(0), np.zeros((0, k + 1)))
    assert v.shape == (0,) and failed == {}


# (k, nodes) of the kernel goldens: the tensor grid at depth <= 1 and
# on 24 nodes, and the field grids of depths 2 and 3
KERNEL_GOLDEN_PLANS = [(0, 80), (1, 80), (2, 24), (2, 40), (2, 80), (3, 20),
                       (3, 32)]


def _golden_block(k, nodes):
    """A seeded block on the plan of depth k: fields as the maps build
    them (grid lanes from depth 2 on 40 nodes), wide tensor lanes, a lane
    with an exact zero interior coefficient, one with a 1e308
    coefficient and one with a NaN offset."""
    rng = np.random.default_rng(1000 + 100 * k + nodes)
    plan = quadrature.level_plan(tuple(np.sort(rng.uniform(0.1, 0.9, k))),
                                 QuadratureSpec(nodes_per_level=nodes))
    offset, coeffs = _model_fields(rng, 2, k)
    wide = _wide_lanes(rng, 1, k)
    zero = rng.uniform(0.2, 1.2, k + 1)
    zero[k // 2 + 1:k + 1][:1] = 0.0
    huge = rng.uniform(0.2, 1.2, k + 1)
    huge[-1] = 1e308
    offset = np.r_[offset, wide[0], 0.3, -0.2, np.nan]
    coeffs = np.r_[coeffs, wide[1], [zero, huge, zero]]
    return plan, offset, coeffs


def _kernel_digest(kernel, plan, offset, coeffs):
    out, failed = kernel(plan, offset, coeffs)
    return hashlib.sha256(out.tobytes()
                          + repr(sorted(failed.items())).encode()).hexdigest()


# SHA-256 of the output bytes and the failures of plan_log_cosh and
# plan_moments on each plan's golden block, recorded at 5833047 before
# the two kernels became one recursion
_KERNEL_GOLDENS = {
    (0, 80): [
        "1360e951b0858bdcc65a62962bf569c5ec4282e1f7a1b2ab428ab9583042448e",
        "e9ea08086689f8fb9ba95cce9176b36ffd1ef5c08f044b16097955f8b548a61b"],
    (1, 80): [
        "4602854e278ba9f6691ef07c92a7220a268ccfc74656df550a0dc828afbb6697",
        "427bede97f039fc78bc99407b9dd27de2f9f242f5cb8e6cf08ea15459e369730"],
    (2, 24): [
        "00cc0cb2054988edc7623b43fcde7e6874eb41f18d6397d720630e944d04bae5",
        "ce8e10078547960f4ec224d2a1dded6eee2fd4f109decbd04dab94f05e337d92"],
    (2, 40): [
        "855429cb5d930172ae4a84f9609f3621f89350c3ddfcbd6b1fc622426bdf08f4",
        "3a1d5b8a27a4bc564c2f35764f598eec7d0a3d3f8fd8cabfd8d84ad7054c2529"],
    (2, 80): [
        "5f85fe23395713e6b32538c43ef00223703a00b061b0e1e9b5eb6568a3b1bf78",
        "b63838cc39aec8eae59ac9b4d1c6a5bc93ecc878f6c67f21c6c020a33247f0e3"],
    (3, 20): [
        "33907e64a0d9e407c5b9cedc68c333286adcbd25efc44dfbc007dd0ceb9f670b",
        "07219954eb5fb8791e82bacd1c7f238c9ac5efcb3a6dbfb87fabe812da412a68"],
    (3, 32): [
        "7728d6af6e0da801661b9e6c95cce750abb949adb974e083bda325a531c17b44",
        "88773b87d833975a44ec0d183b4dfb5b55f1bffece8be78bc9f38b903bcd8ff7"],
}


@pytest.mark.parametrize("k,nodes", KERNEL_GOLDEN_PLANS)
def test_kernels_match_recorded_bits(k, nodes):
    plan, offset, coeffs = _golden_block(k, nodes)
    if k >= 2 and nodes >= 40:
        depth = quadrature._exact_depth(plan, offset[:-3], coeffs[:-3])
        assert (depth < k).any() and (depth == k).any()
    got = [_kernel_digest(quadrature.plan_log_cosh, plan, offset, coeffs),
           _kernel_digest(quadrature.plan_moments, plan, offset, coeffs)]
    assert got == _KERNEL_GOLDENS[k, nodes]
