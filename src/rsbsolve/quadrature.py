"""Nested Gaussian averages on tensor grids.

Two kernels walk the same grid and the same per-level reweighting:
``nested_log_cosh_expect`` gives the field term of the pressure, and
``nested_moments`` gives every output of the self-consistency map (the
magnetization and all overlap plateaus) from one pass.

All expectations are over independent standard normals, one per
hierarchy level.  Deterministic Gauss-Hermite nodes are used per level
(physicists' nodes rescaled to unit variance); when the tensor product
would blow the configured budget, outer levels degrade one by one to a
fixed antithetic sampling rule so results stay reproducible without any
caller-supplied seed.  Everything runs in the log domain, with a max
subtraction per reduction, so large arguments cannot overflow.
"""

from __future__ import annotations

import math
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


@lru_cache(maxsize=256)
def _sampling_nodes(level, count):
    # Fixed stream per (level, count): identical runs never depend on call
    # order, process, or platform.
    ss = np.random.SeedSequence(entropy=0x5EED, spawn_key=(int(level), int(count)))
    gen = np.random.Generator(np.random.Philox(ss))
    half = (count + 1) // 2
    draws = gen.standard_normal(half)
    nodes = np.concatenate([draws, -draws])[:count]
    weights = np.full(count, 1.0 / count)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _log2cosh(x):
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax))


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
    if coeffs.ndim != 1 or coeffs.size != n_levels:
        raise RangeViolation(
            "need one field coefficient per level, got %r for %d levels"
            % (list(np.atleast_1d(coeffs)), n_levels))
    if not (math.isfinite(offset) and np.all(np.isfinite(coeffs))):
        raise NonFiniteIntegrand("field offset or coefficients are not finite")
    return offset, coeffs


def _plan_levels(n_levels, spec):
    """Node count per level, degrading outer levels to sampling nodes
    until the tensor grid fits the budget."""
    sizes = [spec.nodes_per_level] * n_levels
    sampled = [False] * n_levels
    i = 0
    while math.prod(sizes) > spec.max_tensor_points and i < n_levels:
        if spec.mc_samples <= 0:
            raise BudgetExceeded(
                "grid of %d points exceeds max_tensor_points=%d and "
                "mc_samples is 0" % (math.prod(sizes), spec.max_tensor_points))
        sizes[i] = spec.mc_samples
        sampled[i] = True
        i += 1
    if math.prod(sizes) > spec.max_tensor_points:
        raise BudgetExceeded(
            "grid of %d points exceeds max_tensor_points=%d even with "
            "sampling nodes on every level"
            % (math.prod(sizes), spec.max_tensor_points))
    return sizes, sampled


def _level_grids(n_levels, spec):
    sizes, sampled = _plan_levels(n_levels, spec)
    nodes, weights = [], []
    for idx in range(n_levels):
        if sampled[idx]:
            nd, wt = _sampling_nodes(idx + 1, sizes[idx])
        else:
            nd, wt = _hermite_nodes(sizes[idx])
        nodes.append(nd)
        weights.append(wt)
    return nodes, weights


def _field_tensor(offset, coeffs, nodes):
    n_levels = len(nodes)
    g = np.array(offset)
    for idx in range(n_levels):
        shape = [1] * n_levels
        shape[idx] = nodes[idx].size
        g = g + coeffs[idx] * nodes[idx].reshape(shape)
    return g


def _reweight(logn, r, w):
    """Integrate out the innermost level: the normalized weights
    w * exp(r * logn) along it, their sum, and the reduced log kernel."""
    a = r * logn
    mx = a.max(axis=-1, keepdims=True)
    we = w * np.exp(a - mx)
    z = we.sum(axis=-1)
    return we, z, np.squeeze(mx, axis=-1) + np.log(z)


def _nested_grid(offset, coeffs, thetas, spec):
    spec = _DEFAULT_SPEC if spec is None else spec
    thetas = _check_thetas(thetas)
    offset, coeffs = _check_field(offset, coeffs, len(thetas) + 1)
    nodes, weights = _level_grids(len(thetas) + 1, spec)
    return list(thetas) + [1.0], weights, _field_tensor(offset, coeffs, nodes)


def nested_log_cosh_expect(offset, coeffs, thetas=(), spec=None):
    """Hierarchical free-energy term of a field with k+1 Gaussian layers.

    The innermost kernel is 2*cosh of the accumulated field (so the k=0
    case is plainly E[log 2 cosh(offset + c*h)] and a zero field returns
    log 2); each interior level averages the previous kernel raised to
    the ratio of adjacent weight exponents, and the outermost level
    averages (1/theta_1) * log of the result.
    """
    th, weights, g = _nested_grid(offset, coeffs, thetas, spec)
    logn = _log2cosh(g)
    for b in range(len(th), 1, -1):        # integrate out level b
        _, _, logn = _reweight(logn, th[b - 2] / th[b - 1], weights[b - 1])
    value = float(np.dot(weights[0], np.atleast_1d(logn)) / th[0])
    if not math.isfinite(value):
        raise NonFiniteIntegrand("nested average is not finite")
    return value


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
    th, weights, g = _nested_grid(offset, coeffs, thetas, spec)
    logn = _log2cosh(g)
    t = np.tanh(g)
    vals = np.stack([t, t ** 2])   # running tanh average, then plateaus
    for b in range(len(th), 1, -1):
        we, z, logn = _reweight(logn, th[b - 2] / th[b - 1], weights[b - 1])
        vals = np.sum(we * vals, axis=-1) / z
        vals = np.concatenate([vals, vals[:1] * vals[:1]])
    out = [float(np.dot(weights[0], v)) for v in vals]
    if not all(math.isfinite(v) for v in out):
        raise NonFiniteIntegrand("nested moment is not finite")
    qs = np.maximum.accumulate(np.clip(out[:0:-1], 0.0, 1.0))
    return min(1.0, max(-1.0, out[0])), tuple(qs)
