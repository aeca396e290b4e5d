"""Nested Gaussian averages on tensor grids.

Two kernels walk the same grid and the same per-level reweighting:
``nested_log_cosh_expect`` gives the field term of the pressure, and
``nested_moments`` gives every output of the self-consistency map (the
magnetization and all overlap plateaus) from one pass.

All expectations are over independent standard normals, one per
hierarchy level, on Gauss-Hermite nodes (physicists' nodes rescaled to
unit variance).  Every level gets the same node count, the largest that
``QuadratureSpec`` allows and whose tensor grid fits its budget.

A ``LevelPlan`` fixes the exponents, nodes, weights and exponent ratios
of one depth; ``plan_moments`` / ``plan_log_cosh`` evaluate on it, so a
solver builds the plan once and every map application only builds the
field.  ``plan_moments`` evaluates a block of lanes (fields) at once.
The field is a sum of outer products, the transcendentals run in place
and each level is integrated out with one row sum.
Everything runs in the log domain with a max subtraction per reduction,
so large arguments cannot overflow; that max is read off the two end
nodes, since every level's log kernel is convex in its node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_hermite

from .core import (
    BudgetExceeded,
    NonFiniteIntegrand,
    OrderingViolation,
    QuadratureSpec,
    RangeViolation,
)

THETA_FLOOR = 0.01

_DEFAULT_SPEC = QuadratureSpec()


@lru_cache(maxsize=64)
def _hermite_nodes(n):
    # roots of H_n: rescale so the weight is the standard normal density
    x, w = roots_hermite(n)
    h = x * math.sqrt(2.0)
    wn = w / math.sqrt(math.pi)
    h.setflags(write=False)
    wn.setflags(write=False)
    return h, wn


def gauss_expect(f, spec=None):
    """Expectation of ``f(h)`` for a single standard normal ``h``.

    ``f`` may be vectorized over a node array; a scalar-only callable is
    looped over.
    """
    spec = _DEFAULT_SPEC if spec is None else spec
    h, w = _hermite_nodes(spec.nodes_per_level)
    vals = np.asarray(f(h), dtype=float)
    if vals.shape != h.shape:
        vals = np.array([float(f(hi)) for hi in h])
    if not np.all(np.isfinite(vals)):
        raise NonFiniteIntegrand("integrand returned a non-finite value")
    return float(np.dot(w, vals))


def _check_thetas(thetas):
    thetas = tuple(float(t) for t in thetas)
    for t in thetas:
        if not math.isfinite(t):
            raise RangeViolation("weight exponent %r is not finite" % t)
        if t < THETA_FLOOR:
            raise RangeViolation(
                "weight exponent %r below the %g floor" % (t, THETA_FLOOR))
        if t > 1.0:
            raise RangeViolation("weight exponent %r must be <= 1" % t)
    for lo, hi in zip(thetas, thetas[1:]):
        if hi <= lo:
            raise OrderingViolation("weight exponents must be strictly increasing")
    return thetas


def _check_field(offset, coeffs, n_levels):
    offset = float(offset)
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (n_levels,):
        raise RangeViolation(
            "need one field coefficient per level, got %r for %d levels"
            % (list(np.atleast_1d(coeffs)), n_levels))
    if not (math.isfinite(offset) and np.isfinite(coeffs).all()):
        raise NonFiniteIntegrand("field offset or coefficients are not finite")
    return offset, coeffs


def _plan_levels(n_levels, spec):
    """Node count of every level: the largest n <= ``nodes_per_level``
    with n ** n_levels <= ``max_tensor_points``, checked in integers."""
    budget = spec.max_tensor_points
    n = min(spec.nodes_per_level, int(budget ** (1.0 / n_levels)) + 1)
    while n ** n_levels > budget:
        n -= 1
    if n < 2:
        raise BudgetExceeded(
            "%d levels of 2 nodes need %d grid points, over "
            "max_tensor_points=%d" % (n_levels, 2 ** n_levels, budget))
    return n


@dataclass(frozen=True)
class LevelPlan:
    """Everything a nested average needs besides the field: the interior
    weight exponents, per-level nodes and weights (outermost first), and
    ``inner``, one ``(weights, exponent ratio)`` entry per interior
    level, innermost first.

    A plan holds O(k * nodes) floats and no grid-sized buffer, so one
    can be built per solve and reused by every map application.
    """

    thetas: tuple
    nodes: tuple
    weights: tuple
    inner: tuple


def level_plan(thetas=(), spec=None):
    """Check the exponents and lay out the levels of a depth-k average."""
    spec = _DEFAULT_SPEC if spec is None else spec
    thetas = _check_thetas(thetas)
    nodes, weights = _hermite_nodes(_plan_levels(len(thetas) + 1, spec))
    th = thetas + (1.0,)
    inner = tuple((weights, th[i - 1] / th[i])
                  for i in range(len(thetas), 0, -1))
    levels = len(thetas) + 1
    return LevelPlan(thetas, (nodes,) * levels, (weights,) * levels, inner)


def _field_tensor(offset, coeffs, nodes):
    """The fields offset + sum_a c_a h_a of a block of lanes on the
    tensor grid: lane on the first axis, then the levels outermost
    first, built as one outer sum per level.

    Each outer sum g + c x is the rank-2 product [g, 1] @ [1; c x], one
    matrix per lane: every product is by one, so each entry is the
    rounded sum g_i + c x_j exactly as ``np.add.outer`` gives it,
    without numpy's per-row broadcast loop.
    """
    g = offset[:, None] + coeffs[:, :1] * nodes[0]
    for a, x in enumerate(nodes[1:], 1):
        lanes = len(g)
        lhs = np.ones((lanes, g[0].size, 2))
        lhs[:, :, 0] = g.reshape(lanes, -1)
        rhs = np.ones((lanes, 2, x.size))
        rhs[:, 1] = coeffs[:, a, None] * x
        g = (lhs @ rhs).reshape(g.shape + x.shape)
    return g


def _log2cosh(x, out):
    """log 2cosh(x) = |x| + log1p(exp(-2|x|)) into ``out``, without
    overflow; ``x`` is overwritten with |x|."""
    ax = np.abs(x, out=x)
    np.multiply(ax, -2.0, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += ax
    return out


def _reweight(logn, r, w):
    """Turn the log kernel of the last axis into the weights
    w * exp(r * logn - max) in place and return the row max.

    Every level's log kernel is convex in its node (log 2cosh of an
    affine field, and log-sum-exp keeps convexity), so on the ascending
    nodes the row max is at one of the two end nodes.
    """
    logn *= r
    mx = np.maximum(logn[..., 0], logn[..., -1])
    logn -= mx[..., None]
    np.exp(logn, out=logn)
    logn *= w
    return mx


def plan_log_cosh(plan, offset, coeffs):
    """Hierarchical free-energy term on a prepared plan; see
    ``nested_log_cosh_expect``."""
    offset, coeffs = _check_field(offset, coeffs, len(plan.nodes))
    g = _field_tensor(np.array([offset]), coeffs[None], plan.nodes)[0]
    logn = _log2cosh(g, np.empty_like(g))
    for w, r in plan.inner:        # integrate out a level
        mx = _reweight(logn, r, w)
        logn = mx + np.log(logn.sum(axis=-1))
    th1 = plan.thetas[0] if plan.thetas else 1.0
    value = float(np.dot(plan.weights[0], logn) / th1)
    if not math.isfinite(value):
        raise NonFiniteIntegrand("nested average is not finite")
    return value


def plan_moments(plan, offset, coeffs):
    """Self-consistency map outputs of a block of lanes on a prepared
    plan: ``offset`` holds one field offset per lane and ``coeffs`` one
    row of field coefficients per lane, and row i of the result is lane
    i's ``[m, q_1, ..., q_{k+1}]``; see ``nested_moments``.

    Lanes never mix: every step is elementwise or a row sum over the
    last axis, and the outermost level is one vector dot product per
    lane and output (``np.vecdot`` runs the same dot kernel as ``np.dot``
    of two vectors; a matrix-vector product would not), so a lane's row
    is bit for bit what a block of one gives.
    """
    if not (np.isfinite(offset).all() and np.isfinite(coeffs).all()):
        raise NonFiniteIntegrand("field offset or coefficients are not finite")
    g = _field_tensor(offset, coeffs, plan.nodes)
    # row 0: log kernel; rows 1..: running tanh average, then the
    # plateaus innermost first
    rows = np.empty((3,) + g.shape)
    np.tanh(g, out=rows[1])
    np.multiply(rows[1], rows[1], out=rows[2])
    if plan.inner:
        _log2cosh(g, rows[0])
    for w, r in plan.inner:        # integrate out a level
        mx = _reweight(rows[0], r, w)
        rows[1:] *= rows[0]
        sums = rows.sum(axis=-1)
        nxt = np.empty((len(rows) + 1,) + sums.shape[1:])
        np.log(sums[0], out=nxt[0])
        nxt[0] += mx
        np.divide(sums[1:], sums[0], out=nxt[1:-1])
        np.multiply(nxt[1], nxt[1], out=nxt[-1])
        rows = nxt
    out = np.vecdot(rows[1:], plan.weights[0]).T
    if not np.isfinite(out).all():
        raise NonFiniteIntegrand("nested moment is not finite")
    # the finite outputs are clipped as min(hi, max(lo, v)), plateaus
    # outermost first and made non-decreasing
    x = np.empty(out.shape)
    np.minimum(np.maximum(out[:, 0], -1.0), 1.0, out=x[:, 0])
    np.maximum.accumulate(np.minimum(np.maximum(out[:, :0:-1], 0.0), 1.0),
                          axis=1, out=x[:, 1:])
    return x


def nested_log_cosh_expect(offset, coeffs, thetas=(), spec=None):
    """Hierarchical free-energy term of a field with k+1 Gaussian layers.

    The innermost kernel is 2*cosh of the accumulated field (so the k=0
    case is plainly E[log 2 cosh(offset + c*h)] and a zero field returns
    log 2); each interior level averages the previous kernel raised to
    the ratio of adjacent weight exponents, and the outermost level
    averages (1/theta_1) * log of the result.
    """
    return plan_log_cosh(level_plan(thetas, spec), offset, coeffs)


def nested_moments(offset, coeffs, thetas=(), spec=None):
    """Magnetization and overlap plateaus of the self-consistency map,
    from one pass over the grid.

    Returns ``(m, qs)`` with the k+1 plateaus outermost first.  The
    running tanh average is reduced level by level, each reduction
    reweighting by the normalized power of the local partition kernel;
    plateau a is the square of that average once the reduction reaches
    level a, and the innermost plateau averages tanh^2 from the start.
    ``m`` is clamped to [-1, 1] and the plateaus clipped to [0, 1] and
    made non-decreasing: the map preserves both exactly, so this only
    absorbs rounding at the last digit.
    """
    plan = level_plan(thetas, spec)
    offset, coeffs = _check_field(offset, coeffs, len(plan.nodes))
    x = plan_moments(plan, np.array([offset]), coeffs[None])[0]
    return float(x[0]), tuple(x[1:].tolist())
