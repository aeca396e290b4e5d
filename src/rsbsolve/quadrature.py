"""Nested Gaussian averages on tensor grids.

Two kernels walk the same grid and the same per-level reweighting:
``nested_log_cosh_expect`` gives the field term of the pressure, and
``nested_moments`` gives every output of the self-consistency map (the
magnetization and all overlap plateaus) from one pass.

All expectations are over independent standard normals, one per
hierarchy level, on Gauss-Hermite nodes (physicists' nodes rescaled to
unit variance, from a numpy-only Golub-Welsch rule).  Every level gets
the same node count, the largest that ``QuadratureSpec`` allows and
whose tensor grid fits its budget.  An interior level whose field
increment is exactly zero is an identity of the nested average, so a
lane with such levels is evaluated on the hierarchy without them, and
the node count is fitted to that shallower grid: a fully collapsed
depth-k lane costs one level at ``nodes_per_level`` nodes.

A ``LevelPlan`` fixes the exponents, nodes, weights and exponent ratios
of one depth; ``plan_moments`` / ``plan_log_cosh`` evaluate on it, so a
solver builds the plan once and every map application only builds the
field.  Both evaluate a block of lanes (fields) at once.
The field is a sum of outer products, the transcendentals run in place
and each level is integrated out with one row sum.
Everything runs in the log domain with a max subtraction per reduction,
so large arguments cannot overflow; that max is read off the two end
nodes, since every level's log kernel is convex in its node.

Both kernels walk the grid in chunks of outermost nodes (and of lanes,
where one outer node of every lane is more) of at most
``_CHUNK_POINTS`` = 2^17 grid points, lanes included, so each float64
temporary is 1 MB and stays in a 2 MB L2 cache, and peak memory is
bounded by the chunk rather than the tensor.  The chunks are spread
over the CPUs the process may run on: the caller takes one strided
share and one thread per further CPU another, started per call and
joined before it returns.  Every step within a chunk is elementwise or
a row sum over the contiguous last axis and the outermost level's dot
product runs on the caller over the whole node vector, so every output
is bit for bit that of the grid in one piece.  A grid of one chunk is
evaluated in one piece on the caller.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    BudgetExceeded,
    NonFiniteIntegrand,
    OrderingViolation,
    QuadratureSpec,
    RangeViolation,
)

THETA_FLOOR = 0.01

# grid points per chunk of a tensor-grid kernel: 1 MB per float64
# temporary, which stays in a 2 MB L2 cache
_CHUNK_POINTS = 1 << 17

_DEFAULT_SPEC = QuadratureSpec()


def _hermite(n, x):
    """Physicists' H_n(x) as mantissas and binary exponents, H_n = m * 2**e.

    The backward three-term recurrence for He_n(sqrt(2) x) times
    2**(n/2): scipy's ``eval_hermite``.  Every step is rescaled by the
    power of two that brings the newest term into [0.5, 1), which is
    exact, so each rounding is that of the unscaled recurrence while
    degrees whose values overflow a double stay finite.
    """
    t = math.sqrt(2.0) * x
    y2, y3 = np.ones_like(t), np.zeros_like(t)
    e = np.zeros(t.shape, dtype=np.int64)
    for k in range(n, 0, -1):
        y2, y3 = t * y2 - k * y3, y2
        y2, d = np.frexp(y2)
        y3 = np.ldexp(y3, -d)
        e += d
    return y2 * 2.0 ** (n / 2.0), e


def _fit(m, e):
    """m * 2**e times the one power of two that brings the largest
    exponent down to 1000: the plain values whenever those fit."""
    return np.ldexp(m, e - max(0, int(e.max()) - 1000))


def _balanced(m, e):
    """The values m * 2**e divided by the geometric mean of their
    largest and smallest magnitude, up to a power of two."""
    m, d = np.frexp(m)
    v = _fit(m, e + d)
    logv = np.log(np.abs(v))
    return v / np.exp((logv.max() + logv.min()) / 2.0)


@lru_cache(maxsize=64)
def _hermite_nodes(n):
    """Gauss-Hermite nodes and weights for the standard normal density.

    Golub & Welsch, Math. Comp. 23, 221 (1969): the eigenvalues of the
    Jacobi matrix (off-diagonal sqrt(k/2)), one Newton step on H_n, the
    weights 1/(H_{n-1} H_n') from the balanced factors, then symmetrized
    and summed to sqrt(pi), the way scipy's ``roots_hermite`` computes
    them for n <= 150 and bit for bit equal to it there.  The dense
    eigensolve takes O(n^2) memory, which ``QuadratureSpec`` caps.
    """
    off = np.sqrt(np.arange(1.0, n) / 2.0)
    x = np.linalg.eigvalsh(np.diag(off, -1))
    y, ey = _hermite(n, x)
    dy, edy = _hermite(n - 1, x)
    dy = 2.0 * n * dy
    x = x - np.ldexp(y / dy, ey - edy)
    # the product of the balanced factors spans more than a double at
    # large n, so it is formed on their mantissas
    a, ea = np.frexp(_balanced(*_hermite(n - 1, x)))
    b, eb = np.frexp(_balanced(dy, edy))
    w = _fit(1.0 / (a * b), -(ea + eb))
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= np.sqrt(np.pi) / w.sum()
    # rescale so the weight is the standard normal density (after
    # scipy's normalization, which fixes the last bits)
    h = x * math.sqrt(2.0)
    wn = w / math.sqrt(math.pi)
    h.setflags(write=False)
    wn.setflags(write=False)
    return h, wn


def gauss_expect(f, spec=None):
    """Expectation of ``f(h)`` for a single standard normal ``h``.

    ``f`` may be vectorized over a node array; a scalar-only callable
    (one that raises ``TypeError`` on the array or returns a value of
    another shape) is looped over.
    """
    spec = _DEFAULT_SPEC if spec is None else spec
    h, w = _hermite_nodes(spec.nodes_per_level)
    try:
        vals = np.asarray(f(h), dtype=float)
    except TypeError:
        vals = None
    if vals is None or vals.shape != h.shape:
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
    weight exponents, per-level nodes and weights (outermost first),
    ``inner``, one ``(weights, exponent ratio)`` entry per interior
    level, innermost first, ``points``, the size of the tensor grid, and
    the ``spec`` it was fitted to.

    A plan holds O(k * nodes) floats and no grid-sized buffer, so one
    can be built per solve and reused by every map application.
    """

    thetas: tuple
    nodes: tuple
    weights: tuple
    inner: tuple
    points: int
    spec: QuadratureSpec


def level_plan(thetas=(), spec=None):
    """Check the exponents and lay out the levels of a depth-k average."""
    spec = _DEFAULT_SPEC if spec is None else spec
    thetas = _check_thetas(thetas)
    nodes, weights = _hermite_nodes(_plan_levels(len(thetas) + 1, spec))
    th = thetas + (1.0,)
    inner = tuple((weights, th[i - 1] / th[i])
                  for i in range(len(thetas), 0, -1))
    levels = len(thetas) + 1
    return LevelPlan(thetas, (nodes,) * levels, (weights,) * levels, inner,
                     len(nodes) ** levels, spec)


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


def _cpu_count():
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:         # no affinity mask outside Linux
        return os.cpu_count() or 1


def _by_outer_nodes(rows, lead, plan, offset, coeffs):
    """``rows(offset, coeffs, nodes, plan.inner)`` on the whole grid of a
    block of lanes, evaluated in chunks of lanes and outermost nodes.

    ``rows`` integrates out every interior level and returns an array
    of shape ``lead + (len(nodes[0]),)``, lanes on the second-to-last
    axis.  Each chunk holds at most ``_CHUNK_POINTS`` grid points (one
    lane's outer-node sub-grid if that alone is larger) and writes its
    block of the last two axes.  Every step of ``rows`` is elementwise
    or a row sum over the last axis, so each entry is bit for bit that
    of the grid in one piece, which is what a grid of one chunk gets.
    """
    nodes = plan.nodes
    lanes = len(offset)
    if lanes * plan.points <= _CHUNK_POINTS:
        return rows(offset, coeffs, nodes, plan.inner)
    n0 = len(nodes[0])
    fit = _CHUNK_POINTS // (plan.points // n0)   # lanes of one outer node
    size = max(1, fit // lanes)                 # outer nodes per chunk
    width = max(1, min(lanes, fit))             # lanes per chunk
    out = np.empty(lead + (n0,))

    def run(spans):
        for ls, ns in spans:
            out[..., ls, ns] = rows(offset[ls], coeffs[ls],
                                    (nodes[0][ns],) + nodes[1:], plan.inner)

    _spread(run, [(slice(a, a + width), slice(b, b + size))
                  for a in range(0, lanes, width) for b in range(0, n0, size)])
    return out


def _spread(run, spans):
    """``run`` over strided shares of ``spans``, one share per available
    CPU: the caller takes the first and one thread each the others.

    The threads are joined before this returns.  Each runs in a copy of
    the caller's context, so numpy's error state holds there too, and
    the first exception a thread raises is raised here after the join.
    """
    workers = min(_cpu_count(), len(spans))
    errors = []

    def helper(share):
        try:
            run(share)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=contextvars.copy_context().run,
                                args=(helper, spans[i::workers]))
               for i in range(1, workers)]
    for t in threads:
        t.start()
    try:
        run(spans[::workers])
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]


def plan_log_cosh(plan, offset, coeffs):
    """Hierarchical free-energy terms of a block of lanes on a prepared
    plan, one per lane, and a dict from row to the ``NonFiniteIntegrand``
    of each lane whose field or value is not finite (its value is NaN);
    see ``nested_log_cosh_expect``.  Lanes are laid out, chunked and kept
    apart as in ``plan_moments``, so a lane's value is bit for bit what
    a block of one gives, even with no lanes at all.
    """
    return _finite_lanes(_log_cosh, plan, offset, coeffs, (),
                         "field or nested average is not finite")


def plan_moments(plan, offset, coeffs):
    """Self-consistency map outputs of a block of lanes on a prepared
    plan: ``offset`` holds one field offset per lane and ``coeffs`` one
    row of field coefficients per lane, and row i of the result is lane
    i's ``[m, q_1, ..., q_{k+1}]``; see ``nested_moments``.

    Returns the block and a dict from row to the ``NonFiniteIntegrand``
    of each lane whose field or moments are not finite (its row is NaN).
    Lanes never mix: a lane with a non-finite field stays out of the
    kernel, every step is elementwise or a row sum over the last axis,
    and the outermost level is one vector dot product per lane and
    output (``np.vecdot`` runs the same dot kernel as ``np.dot`` of two
    vectors; a matrix-vector product would not), so a lane's row is bit
    for bit what a block of one gives.
    """
    out, failed = _finite_lanes(_moments, plan, offset, coeffs,
                                (coeffs.shape[1] + 1,),
                                "field or nested moment is not finite")
    # the finite outputs are clipped as min(hi, max(lo, v)), plateaus
    # outermost first and made non-decreasing
    lo = np.zeros(out.shape[1])
    lo[0] = -1.0
    x = np.minimum(np.maximum(out, lo), 1.0)
    if out.shape[1] > 2:
        x[:, 1:] = np.maximum.accumulate(x[:, :0:-1], axis=1)
    return x, failed


def _finite_lanes(kernel, plan, offset, coeffs, shape, what):
    """``kernel(plan, offset, coeffs)`` on the lanes with a finite field,
    one row of ``shape`` each (NaN for the others), and a dict from row
    to a ``NonFiniteIntegrand(what)`` for each lane whose field or row is
    not finite."""
    lanes = len(offset)
    if not lanes:
        return np.empty((0,) + shape), {}
    if np.isfinite(offset).all() and np.isfinite(coeffs).all():
        out = _without_zero_levels(kernel, plan, offset, coeffs, shape)
    else:
        finite = np.isfinite(offset) & np.isfinite(coeffs).all(axis=1)
        out = np.full((lanes,) + shape, np.nan)
        if finite.any():
            out[finite] = _without_zero_levels(kernel, plan, offset[finite],
                                               coeffs[finite], shape)
    failed = {}
    if not np.isfinite(out).all():
        bad = ~np.isfinite(out.reshape(lanes, -1)).all(axis=1)
        out[bad] = np.nan
        failed = {i: NonFiniteIntegrand(what)
                  for i in np.flatnonzero(bad).tolist()}
    return out, failed


def _without_zero_levels(kernel, plan, offset, coeffs, shape):
    """``kernel(plan, offset, coeffs)`` on a block of lanes with finite
    fields, where each lane with exact zeros among its interior field
    coefficients (columns 1..k) runs on the plan of the hierarchy
    without those levels.

    A level a with c_a = 0 is an exact identity: its kernel is constant
    over its nodes, so it passes the inner log kernel through, scaled by
    theta_a / theta_{a+1}, which the outer ratio then takes over.  Its
    plateau (the square of the tanh average given levels 0..a-1) is that
    of its inner neighbour, so a moment row copies it from there.  Lanes
    without an interior zero, and every k=0 block, run on ``plan``.
    """
    if not plan.thetas or coeffs[:, 1:].all():
        return kernel(plan, offset, coeffs)
    out = np.empty((len(offset),) + shape)
    keys, group = np.unique(coeffs[:, 1:] == 0.0, axis=0, return_inverse=True)
    for g, key in enumerate(keys):
        rows = group.reshape(-1) == g
        keep = ~key
        sub = level_plan(np.compress(keep, plan.thetas), plan.spec)
        res = kernel(sub, offset[rows], coeffs[rows][:, np.r_[True, keep]])
        if shape:          # plateau columns innermost first
            res = res[:, np.r_[0, 1 + np.cumsum(np.r_[0, keep[::-1]])]]
        out[rows] = res
    return out


def _log_cosh(plan, offset, coeffs):
    """The nested averages of a block of lanes with finite fields."""
    logn = _by_outer_nodes(_log_cosh_rows, (len(offset),), plan, offset,
                           coeffs)
    th1 = plan.thetas[0] if plan.thetas else 1.0
    return np.vecdot(logn, plan.weights[0]) / th1


def _moments(plan, offset, coeffs):
    """The unclipped ``[m, q_{k+1}, ..., q_1]`` rows of a block of lanes
    with finite fields."""
    rows = _by_outer_nodes(_moment_rows, (len(plan.inner) + 3, len(offset)),
                           plan, offset, coeffs)
    return np.vecdot(rows[1:], plan.weights[0]).T


def _log_cosh_rows(offset, coeffs, nodes, inner):
    """The log kernel of a block of lanes on the outermost level's
    ``nodes[0]``, every interior level integrated out."""
    g = _field_tensor(offset, coeffs, nodes)
    logn = _log2cosh(g, np.empty_like(g))
    for w, r in inner:             # integrate out a level
        mx = _reweight(logn, r, w)
        logn = mx + np.log(logn.sum(axis=-1))
    return logn


def _moment_rows(offset, coeffs, nodes, inner):
    """The log kernel (row 0, unset without interior levels), the
    running tanh average and the plateaus innermost first of a block of
    lanes on the outermost level's ``nodes[0]``, every interior level
    integrated out."""
    g = _field_tensor(offset, coeffs, nodes)
    # row 0: log kernel; rows 1..: running tanh average, then the
    # plateaus innermost first
    rows = np.empty((3,) + g.shape)
    np.tanh(g, out=rows[1])
    np.multiply(rows[1], rows[1], out=rows[2])
    if inner:
        _log2cosh(g, rows[0])
    for w, r in inner:             # integrate out a level
        mx = _reweight(rows[0], r, w)
        rows[1:] *= rows[0]
        sums = rows.sum(axis=-1)
        nxt = np.empty((len(rows) + 1,) + sums.shape[1:])
        np.log(sums[0], out=nxt[0])
        nxt[0] += mx
        np.divide(sums[1:], sums[0], out=nxt[1:-1])
        np.multiply(nxt[1], nxt[1], out=nxt[-1])
        rows = nxt
    return rows


def nested_log_cosh_expect(offset, coeffs, thetas=(), spec=None):
    """Hierarchical free-energy term of a field with k+1 Gaussian layers.

    The innermost kernel is 2*cosh of the accumulated field (so the k=0
    case is plainly E[log 2 cosh(offset + c*h)] and a zero field returns
    log 2); each interior level averages the previous kernel raised to
    the ratio of adjacent weight exponents, and the outermost level
    averages (1/theta_1) * log of the result.
    """
    return float(_block_of_one(plan_log_cosh, offset, coeffs, thetas, spec))


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
    x = _block_of_one(plan_moments, offset, coeffs, thetas, spec)
    return float(x[0]), tuple(x[1:].tolist())


def _block_of_one(kernel, offset, coeffs, thetas, spec):
    """A plan kernel on a block of one checked field; raises its failure."""
    plan = level_plan(thetas, spec)
    offset, coeffs = _check_field(offset, coeffs, len(plan.nodes))
    out, failed = kernel(plan, np.array([offset]), coeffs[None])
    if failed:
        raise failed[0]
    return out[0]
