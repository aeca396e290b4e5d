"""Nested Gaussian averages on Gauss-Hermite rules.

One level recursion gives the pressure's field term and the
self-consistency map.  Its row 0, the log kernel, integrates to the
field term (``nested_log_cosh_expect``); the rows after it, the running
tanh average and the plateaus, exist only on the moment pass and give
every output of the map (``nested_moments``: the magnetization and all
overlap plateaus) from one pass.

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
of one depth; ``plan_moments`` / ``plan_log_cosh`` evaluate a block of
lanes (fields) on it, so a solver builds the plan once and every map
application only builds the field.  Three layers run a block:
``_finite_lanes`` keeps lanes with unbounded fields off the kernel,
``_nested`` drops zero levels, picks each lane's grids and integrates
the outermost level, and ``_tensor_rows`` walks the tensor grid in
chunks, so a block of one chunk reaches its transcendentals in three
calls.  They run in place and each level is integrated out with one
row sum.  Everything runs in the log domain with a max subtraction
per reduction, so large arguments cannot overflow; that max is read off
the two end nodes, since every level's log kernel is convex in its node.

Level a depends on the outer normals only through the cumulative field
y = offset + sum_{b<a} c_b h_b (Parisi, J. Phys. A 13, L115, 1980).
Level 1 is always evaluated at its n exact fields.  A deeper level runs
either at its n^a exact fields, as the tensor grid does, or on a
uniform grid in y of spacing ``_DY`` = 0.05 that spans them, where the
level above reads its rows through a ``_STENCIL`` = 13-point Lagrange
stencil; each lane takes the grids where they cost fewer evaluations
(``_exact_depth``).  So every depth <= 1 block, every depth-2 block on
26 nodes or fewer and every lane too wide for a cheaper grid is the
tensor grid, bit for bit; a lane on grids agrees with it to 1e-15 in
the log-cosh term and 2e-14 in the moments (tested to 1e-13).

The tensor grid is walked in chunks of outermost nodes (and of lanes,
where one outer node of every lane is more), and each grid in chunks of
grid points, of at most ``_CHUNK_POINTS`` = 2^17 points, lanes
included, so each float64 temporary is 1 MB and stays in a 2 MB L2
cache, and peak memory is bounded by the chunk rather than the grid.
Every chunk runs on the caller.  Every step within a chunk is
elementwise or a row sum over the contiguous last axis and the
outermost level's dot product runs over the whole node vector, so every
output is bit for bit that of the grid in one piece, and a lane's row is
that of a block of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

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

# the grids of the deeper levels: spacing in the cumulative field, the
# points of the equispaced Lagrange stencil that interpolates on them,
# and the points added per level beyond each end of a grid's exact
# fields (the stencil's half width, a point for rounding and slack)
_DY = 0.05
_STENCIL = 13
_MARGIN = 9
# no grid for fields this far out: beyond it a float's spacing passes
# 2e-5 grid steps, an error the equispaced stencil weights would carry
_FAR = 2.0 ** 32
# 1 / prod_{m != s} (s - m): the Lagrange weights' denominators
_BARYCENTRIC = 1.0 / np.array([math.prod(s - m for m in range(_STENCIL)
                                         if m != s)
                               for s in range(_STENCIL)], dtype=float)

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
    level, innermost first, ``points``, the size of the tensor grid (what
    a lane evaluated there costs; a lane whose deeper levels run on grids
    costs fewer), and the ``spec`` it was fitted to.

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
    """Check the exponents and lay out the levels of a depth-k average;
    a plan is immutable, so one per exponents and spec is shared."""
    return _laid_out(_check_thetas(thetas), spec or _DEFAULT_SPEC)


@lru_cache(maxsize=256)
def _laid_out(thetas, spec):
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
    g = coeffs[:, :1] * nodes[0]
    g += offset[:, None]
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
    """Hierarchical free-energy terms of a block of lanes on a prepared
    plan, one per lane, and a dict from row to the ``NonFiniteIntegrand``
    of each lane whose field or value is not finite (its value is NaN);
    see ``nested_log_cosh_expect``.  Lanes are laid out, chunked and kept
    apart as in ``plan_moments``, so a lane's value is bit for bit what
    a block of one gives, even with no lanes at all.
    """
    return _finite_lanes(plan, offset, coeffs, False,
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
    out, failed = _finite_lanes(plan, offset, coeffs, True,
                                "field or nested moment is not finite")
    # the finite outputs are clipped as min(hi, max(lo, v)), plateaus
    # outermost first and made non-decreasing
    lo, hi = _clip_bounds(*out.shape)
    x = np.maximum(out, lo)
    np.minimum(x, hi, out=x)
    if out.shape[1] > 2:
        x[:, 1:] = np.maximum.accumulate(x[:, :0:-1], axis=1)
    return x, failed


@lru_cache(maxsize=16)
def _clip_bounds(lanes, width):
    """-1 <= m <= 1 and 0 <= q_a <= 1 at every entry of a block of
    moment rows, column-major like them: clips by plain elementwise calls."""
    lo = np.zeros((lanes, width), order="F")
    lo[:, 0] = -1.0
    hi = np.ones((lanes, width), order="F")
    lo.setflags(write=False)
    hi.setflags(write=False)
    return lo, hi


def _finite_lanes(plan, offset, coeffs, moments, what):
    """``_nested(plan, offset, coeffs, moments)`` on the lanes whose
    fields are bounded on the whole grid (NaN for the others, which are
    not evaluated), and a dict from row to a ``NonFiniteIntegrand(what)``
    for each lane whose field or row is not finite.  A lane's largest
    |field| is |offset| + h_max sum |c_a|, and below 2^1000 no step of
    the kernel overflows.  One bound covers the block, in Python floats:
    (1 + h_max (k+1)) times the norm of all entries, which is NaN or inf
    with any entry (``max`` drops a NaN by where it sits).  Below it, one
    sum shows finite rows; the per-lane tests run where either fails."""
    lanes = len(offset)
    shape = (lanes, coeffs.shape[1] + 1) if moments else (lanes,)
    if not lanes:
        return np.empty(shape), {}
    hmax = float(plan.nodes[0][-1])
    if (1.0 + hmax * coeffs.shape[1]) * math.hypot(
            *offset.tolist(), *coeffs.ravel().tolist()) < 2.0 ** 1000:
        out = _nested(plan, offset, coeffs, moments)
        if math.isfinite(sum(out.ravel(order="K").tolist())):
            return out, {}
    else:
        with np.errstate(over="ignore"):
            bounded = (np.abs(offset) + hmax * np.abs(coeffs).sum(axis=1)
                       < 2.0 ** 1000)
        out = np.full(shape, np.nan)
        if bounded.any():
            out[bounded] = _nested(plan, offset[bounded], coeffs[bounded],
                                   moments)
    bad = ~np.isfinite(out.reshape(lanes, -1)).all(axis=1)
    out[bad] = np.nan
    return out, {i: NonFiniteIntegrand(what)
                 for i in np.flatnonzero(bad).tolist()}


def _leaf(g, nrows, log):
    """The rows of the innermost level from its fields ``g``
    (overwritten).  Row 0 is their log kernel, set where it is the only
    row or ``log`` (an inner level reweights by it); a moment pass
    (``nrows`` > 1) adds row 1, their tanh, and row 2, its square."""
    rows = np.empty((min(nrows, 3),) + g.shape)
    if nrows > 1:
        np.tanh(g, out=rows[1])
        np.multiply(rows[1], rows[1], out=rows[2])
    if log or nrows == 1:
        _log2cosh(g, rows[0])
    return rows


def _step(rows, w, r):
    """Integrate the last axis out of the log kernel (row 0) and of any
    running tanh average (row 1) and plateaus innermost first, and then
    append the new plateau, the square of the new tanh average."""
    mx = _reweight(rows[0], r, w)
    moments = len(rows) > 1
    if moments:
        rows[1:] *= rows[0]
    sums = rows.sum(axis=-1)
    nxt = np.empty((len(rows) + moments,) + sums.shape[1:])
    np.log(sums[0], out=nxt[0])
    nxt[0] += mx
    if moments:
        np.divide(sums[1:], sums[0], out=nxt[1:-1])
        np.multiply(nxt[1], nxt[1], out=nxt[-1])
    return nxt


def _nested(plan, offset, coeffs, moments):
    """The nested averages of a block of lanes with bounded fields: the
    field term (1/theta_1) E log Z_1 of each lane, which is row 0 of the
    recursion, or on the moment pass the unclipped
    ``[m, q_{k+1}, ..., q_1]`` rows, which are rows 1.. of it.

    A level a with c_a = 0 is an exact identity: its kernel is constant
    over its nodes, so it passes the inner log kernel through, scaled by
    theta_a / theta_{a+1}, which the outer ratio then takes over, and its
    plateau is that of its inner neighbour.  So a lane with exact zeros
    among its interior coefficients (columns 1..k) runs on the plan
    without those levels.  The others run on the tensor grid
    (``_tensor_rows``) or, per ``_exact_depth``, with their deeper levels
    on grids (``_grid_rows``); a lane's row is that of a block of one.
    """
    k = len(plan.thetas)
    if k and not coeffs[:, 1:].all():
        out = np.empty((len(offset), k + 2) if moments else len(offset))
        keys, group = np.unique(coeffs[:, 1:] == 0.0, axis=0,
                                return_inverse=True)
        for g, key in enumerate(keys):
            rows = group.reshape(-1) == g
            keep = ~key
            sub = level_plan(np.compress(keep, plan.thetas), plan.spec)
            res = _nested(sub, offset[rows],
                          coeffs[rows][:, np.r_[True, keep]], moments)
            if moments:        # plateau columns innermost first
                res = res[:, np.r_[0, 1 + np.cumsum(np.r_[0, keep[::-1]])]]
            out[rows] = res
        return out
    nrows = k + 3 if moments else 1
    # below depth 2, or where the n^2 exact points of level 2 alone cost
    # the tensor grid (see _exact_depth), every lane is exact
    if k < 2 or len(plan.nodes[0]) ** (k - 1) <= 2 * _STENCIL:
        rows = _tensor_rows(nrows, plan.nodes, plan.inner, offset, coeffs)
    else:
        depth = _exact_depth(plan, offset, coeffs)
        groups = np.unique(depth).tolist()
        rows = np.empty((nrows, len(offset), len(plan.nodes[0])))
        for p in groups:
            lanes = depth == p if len(groups) > 1 else slice(None)
            rows[:, lanes] = (
                _tensor_rows(nrows, plan.nodes, plan.inner, offset[lanes],
                             coeffs[lanes]) if p == k else
                _grid_rows(nrows, plan, offset[lanes], coeffs[lanes], p))
    if moments:
        return np.vecdot(rows[1:], plan.weights[0]).T
    return np.vecdot(rows[0], plan.weights[0]) / (plan.thetas + (1.0,))[0]


def _tensor_rows(nrows, nodes, inner, offset, coeffs, *grid, per_point=1):
    """The ``nrows`` rows of a block of lanes on the outermost level's
    ``nodes[0]``, every level of ``inner`` integrated out of the tensor
    grid of ``nodes``: shape ``(nrows, lanes, len(nodes[0]))``.

    The innermost level's rows are ``_leaf`` of its fields or, given
    ``grid`` (each lane's first grid point and its rows on the grid of
    the level below ``nodes``, lane first), interpolated from there.
    A block of more than ``_CHUNK_POINTS // per_point`` grid points runs
    in chunks of lanes and outermost nodes of at most that many (one
    lane's outer-node sub-grid if that alone is larger), each writing
    its block of the last two axes; every step is elementwise or a row
    sum over the last axis, so each entry is that of one piece.
    """
    count, n0 = len(offset), len(nodes[0])
    # lanes times outer nodes that fit a chunk
    fit = max(1, _CHUNK_POINTS // per_point) // len(nodes[-1]) ** (
        len(nodes) - 1)
    if count * n0 > max(1, fit):
        size = max(1, fit // count)             # outer nodes per chunk
        width = max(1, min(count, fit))         # lanes per chunk
        out = np.empty((nrows, count, n0))
        for a in range(0, count, width):
            for b in range(0, n0, size):
                ls, ns = slice(a, a + width), slice(b, b + size)
                out[:, ls, ns] = _tensor_rows(
                    nrows, (nodes[0][ns],) + nodes[1:], inner, offset[ls],
                    coeffs[ls], *(x[ls] for x in grid), per_point=per_point)
        return out
    g = _field_tensor(offset, coeffs, nodes)
    if grid:
        start, below = grid
        at = (g - start.reshape((-1,) + (1,) * (g.ndim - 1))) / _DY
        rows = _interpolate(np.moveaxis(below, 0, 1), *_stencil(at))
    else:
        rows = _leaf(g, nrows, bool(inner))
    for w, r in inner:             # integrate out a level
        rows = _step(rows, w, r)
    return rows


def _reach(plan, coeffs):
    """The half width h_max * sum_{b<a} |c_b| of level a's exact fields
    around the offset, for a = 1..k, lane first."""
    return plan.nodes[0][-1] * np.cumsum(np.abs(coeffs[:, :-1]), axis=1)


def _margins(levels):
    """The grid points beyond each end of the exact fields of each of
    ``levels``: ``_MARGIN`` per level below level 1."""
    return _MARGIN * (levels - 1)


def _exact_depth(plan, offset, coeffs):
    """Each lane's deepest level p evaluated at its exact points; levels
    p+1..k run on grids (``_grid_rows``).

    p minimizes the points evaluated, with each interpolated point
    counted as the ``_STENCIL`` grid points it reads, and twice that
    where its stencil weights are its own: p = k costs the n^(k+1) points
    of the tensor grid, and p < k costs the n^(p+1) exact points of
    level p+1, interpolated, plus n points per grid point of each level
    below, interpolated by node-wide weights except at level k, which
    is the closed form.  Grids never larger than the tensor grid are
    all that take part, so no size overflows.  A lane whose fields reach
    ``_FAR`` is exact.
    """
    k = len(plan.thetas)
    n = float(len(plan.nodes[0]))
    level = np.arange(1, k + 1)
    tensor = n ** (k + 1)
    reach = np.minimum(_reach(plan, coeffs), tensor * _DY)
    work = (np.ceil(reach * (2 / _DY)) + 2 * _margins(level) + 1) * n
    work[:, :-1] *= _STENCIL
    below = np.cumsum(work[:, :0:-1], axis=1)[:, ::-1]  # levels p+1..k
    cost = np.empty_like(work)
    cost[:, :-1] = 2 * _STENCIL * n ** level[1:] + below
    cost[np.abs(offset) + reach[:, -1] >= _FAR, :-1] = np.inf
    cost[:, -1] = tensor
    return 1 + np.argmin(cost, axis=1)


def _grid_rows(nrows, plan, offset, coeffs, p):
    """The rows of a block of lanes on the outermost level's nodes, as
    ``_nested`` integrates them, with levels p+1..k on grids.

    Level a of a lane is a function of the cumulative field y alone.  Its
    grid has spacing ``_DY`` and spans the exact fields, offset +- reach
    (``_reach``), plus ``_MARGIN`` points per level beyond each end, so
    every stencil of the level above stays inside it.  Level k's rows
    are ``_leaf`` at grid + c_k h_j; each level above interpolates the
    rows of the level below at grid + c_a h_j, a shift that is constant
    over the grid, so the stencil weights are computed once per node.
    Levels p..1 run on the tensor grid of their exact fields, with the
    rows of level p+1 interpolated there.  The grids of a block are
    padded to a common size per level, each level as much longer than
    the one above as any lane's needs, so padded points read in range;
    every step is elementwise or a row sum, so a lane's rows do not
    depend on the padding or on the chunks of grid points.
    """
    k = len(plan.thetas)
    h = plan.nodes[0]
    count = len(offset)
    margin = _margins(np.arange(p + 1, k + 1))
    reach = _reach(plan, coeffs)[:, p:]
    origin = offset[:, None] - reach - margin * _DY
    size = np.ceil(reach * (2 / _DY)).astype(np.intp) + 2 * margin + 1
    size = size[:, 0].max() + np.r_[0, np.diff(size, axis=1).max(axis=0)
                                    .cumsum()]
    shift = coeffs[:, k, None] * h

    def innermost(a, b):
        grid = origin[:, -1, None] + _DY * np.arange(a, b)
        return _leaf(grid[:, :, None] + shift[:, None, :], nrows, True)

    rows = _on_grid(innermost, plan.inner[0], size[-1], count * len(h))
    for a in range(k - 1, p, -1):
        col = a - p - 1
        first, lam = _stencil((origin[:, col, None] - origin[:, col + 1, None]
                               + coeffs[:, a, None] * h) / _DY)
        rows = _on_grid(partial(_shifted, rows, first, lam), plan.inner[k - a],
                        size[col], count * len(h) * _STENCIL)
    return _tensor_rows(nrows, plan.nodes[:p + 1], plan.inner[k - p:],
                        offset, coeffs[:, :p + 1], origin[:, 0],
                        np.moveaxis(rows, 1, 0), per_point=_STENCIL)


def _on_grid(rows_at, level, size, per_point):
    """``_step`` of ``rows_at(i, j)``, a level's rows at grid points i..j-1
    of every lane, over grid points 0..size-1 in chunks of at most
    ``_CHUNK_POINTS // per_point`` points."""
    width = max(1, _CHUNK_POINTS // per_point)
    if width >= size:
        return _step(rows_at(0, size), *level)
    return np.concatenate([_step(rows_at(i, min(i + width, size)), *level)
                           for i in range(0, size, width)], axis=-1)


def _stencil(at):
    """The first point and the Lagrange weights, stencil point first, of
    the ``_STENCIL`` equispaced grid points around each position ``at``
    (in grid steps from the first grid point), with ``at`` in their
    middle cell.

    Weight s is b_s prod_{m != s} d_m, d_m the position less point m and
    b_s = ``_BARYCENTRIC[s]``.  Only the middle difference, the offset
    in the cell, can vanish, so the product is taken without it and
    each other weight divides its own difference out of it.
    """
    half = _STENCIL // 2
    cell = np.floor(at)
    frac = at - cell
    d = np.add.outer(half - np.arange(_STENCIL, dtype=float), frac)
    d[half] = 1.0
    rest = np.prod(d, axis=0)
    lam = np.multiply.outer(_BARYCENTRIC, rest * frac)
    lam /= d
    lam[half] = _BARYCENTRIC[half] * rest
    return cell.astype(np.intp) - half, lam


def _interpolate(rows, first, lam):
    """Each lane's ``rows`` on its grid, shape ``(nrows, lanes, size)``,
    interpolated on the stencils that start at ``first`` (lane first)
    with weights ``lam`` (stencil point first): shape
    ``(nrows,) + first.shape``."""
    size = rows.shape[-1]
    at = first + (size * np.arange(rows.shape[1])).reshape(
        (-1,) + (1,) * (first.ndim - 1))
    vals = np.take(rows.reshape(len(rows), -1),
                   np.add.outer(np.arange(_STENCIL), at), axis=1)
    vals *= lam
    return vals.sum(axis=1)


def _shifted(rows, first, lam, i, j):
    """Each lane's ``rows`` on its grid, shape ``(nrows, lanes, size)``,
    interpolated at grid points i..j-1 of the level above shifted by
    each node: the stencil of node b starts at ``first[:, b] + i`` with
    weights ``lam[:, :, b]`` at every point.  Shape ``(nrows, lanes,
    j - i, nodes)``."""
    window = np.lib.stride_tricks.sliding_window_view(rows, j - i, axis=-1)
    lane = np.arange(rows.shape[1])[:, None]
    out = window[:, lane, first + i] * lam[0, ..., None]
    for s in range(1, _STENCIL):
        out += window[:, lane, first + (i + s)] * lam[s, ..., None]
    return np.ascontiguousarray(out.swapaxes(-1, -2))


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
    """A plan kernel on a block of one field, one coefficient per level;
    a non-finite field raises the kernel's ``NonFiniteIntegrand``."""
    plan = level_plan(thetas, spec)
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (len(plan.nodes),):
        raise RangeViolation(
            "need one field coefficient per level, got %r for %d levels"
            % (np.atleast_1d(coeffs).tolist(), len(plan.nodes)))
    return _one_lane(kernel, plan, np.array([float(offset)]),
                     coeffs[None])[0][0]


def _one_lane(block, *args):
    """The outputs of a block function, one whose last output is its
    dict from row to failure, on the one-lane block ``args``; raises
    the lane's failure."""
    *out, failed = block(*args)
    if failed:
        raise failed[0]
    return out
