"""Damped fixed-point iteration, stationarity checks and exponent
optimization.

The driver is generic: it iterates any map over scalars, arrays or
hierarchical trial points.  A damped step between two admissible trial
points is admissible to the last bit (rounding is monotone), so every
intermediate state is constructible without a projection.  One loop
serves everything: ``_iterate`` runs a block of lanes in lockstep, and
``solve_grid`` makes every (parameter point, start) pair a lane, mapped
on flat vectors by each model's block step with the one quadrature plan
of the call's exponents; ``solve_model`` and ``damped_fixed_point`` are
its one-point and one-lane cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    BracketViolation,
    DomainError,
    OrderingViolation,
    RangeViolation,
    RsbAnsatz,
    ShapeMismatch,
    SolveReport,
    _integral,
)
from . import hopfield as _hop
from . import sk as _sk
from .quadrature import THETA_FLOOR, level_plan


@dataclass(frozen=True)
class SolverOptions:
    """Damped-iteration settings.

    ``tol`` bounds the residual max|f(x) - x| at the reported iterate,
    not the distance to the fixed point: for a map contracting at rate
    lambda that distance is about tol / (1 - lambda), which near a
    critical line is orders of magnitude larger (1.1e-8 at tol=1e-10 for
    the pairwise model at beta=1.1, j0=0.6, theta=0.5 on 80 nodes).
    """

    damping: float = 0.5
    tol: float = 1e-10
    max_iter: int = 20000

    def __post_init__(self):
        object.__setattr__(self, "damping", float(self.damping))
        object.__setattr__(self, "tol", float(self.tol))
        _integral(self, "max_iter")
        if not (0.0 < self.damping <= 1.0):
            raise RangeViolation("damping must lie in (0, 1], got %r" % self.damping)
        if not 0.0 < self.tol < math.inf:
            raise RangeViolation("tol must be finite and > 0, got %r" % self.tol)
        if self.max_iter < 1:
            raise RangeViolation("max_iter must be >= 1")


_DEFAULT_OPTIONS = SolverOptions()


def isotonic_nondecreasing(y):
    """Least-squares projection onto non-decreasing sequences (pool
    adjacent violators, unit weights)."""
    vals, counts = [], []
    for v in np.asarray(y, dtype=float).tolist():
        vals.append(v)
        counts.append(1)
        while len(vals) > 1 and vals[-2] > vals[-1]:
            total = counts[-1] + counts[-2]
            merged = (vals[-1] * counts[-1] + vals[-2] * counts[-2]) / total
            vals.pop()
            counts.pop()
            vals[-1] = merged
            counts[-1] = total
    return np.array([v for v, c in zip(vals, counts) for _ in range(c)])


def _flatten(ansatz):
    parts = [[ansatz.m], ansatz.qs]
    if ansatz.ps is not None:
        parts.append(ansatz.ps)
    return np.concatenate(parts)


def _unflatten(vec, template):
    k = template.k
    ps = None if template.ps is None else vec[k + 2:2 * k + 3]
    return replace(template, m=vec[0], qs=vec[1:k + 2], ps=ps)


_STALL_WINDOW = 300


def _iterate(step, x, opts, consts=None):
    """The damped loop over a block of lanes.

    ``x`` holds one flat start vector per lane and ``step(c, xs)`` maps
    the iterates ``xs`` of the running lanes, ``c`` being their rows of
    ``consts`` (default: lane numbers, re-sliced only as lanes leave),
    into the mapped rows and a dict from position to the ``DomainError``
    or ``NonFiniteIntegrand`` of each failed lane.  Each lane keeps its
    own damping, stall counter and residual history, and leaves when it
    converges, fails or goes non-finite, so its numbers are those of a
    block of one.  Returns one SolveReport per lane; its ``ansatz`` is
    the last point mapped, or the next damped step at the cap.

    Cost: an iteration is one map application plus seven numpy calls
    (the residuals, their list and the damped step), whatever the lane
    count.  At k=0 on 80 nodes that fixed cost dominates, so the common
    step (no lane leaves, fails or stalls) tests the residuals as Python
    floats, keeps each lane's stall record in Python lists updated from
    them, and keeps every per-lane array column-major like the map's
    rows, the damping at every entry: no call broadcasts or mixes
    layouts.  At k >= 1 the kernel dominates (``tools/bench.py`` times
    both).
    """
    lanes = len(x)
    final = x.copy()
    iterations = np.full(lanes, opts.max_iter)
    converged = np.zeros(lanes, dtype=bool)
    errors = [None] * lanes
    floor = opts.damping / 32.0
    # per running lane, aligned with ``rows``: damping and its
    # complement (every entry of a row), the residual 1 % below its best,
    # and the iteration that last beat it or halved the damping
    rows = np.arange(lanes)
    consts = rows if consts is None else consts
    x = np.asfortranarray(x)
    gamma = np.full_like(x, opts.damping)
    rest = 1.0 - gamma
    bar = [math.inf] * lanes
    mark = [0] * lanes
    due = _STALL_WINDOW             # no lane can stall before this
    trace = []                      # (rows, residuals) per iteration
    for it in range(1, opts.max_iter + 1):
        fx, failed = step(consts, x)
        d = fx - x
        residual = np.maximum.reduce(np.abs(d, out=d), axis=1)
        # the common step: every lane runs on (a NaN or inf residual
        # fails the sum, so min compares floats)
        r = residual.tolist()
        if failed or not sum(r) < math.inf or not min(r) > opts.tol:
            finite = np.isfinite(residual)
            stop = ~finite | (residual <= opts.tol)
            ok = np.ones(len(rows), dtype=bool)
            for i, exc in failed.items():
                ok[i] = False
                errors[rows[i]] = "%s: %s" % (type(exc).__name__, exc)
            trace.append((rows[ok], residual[ok]))
            stop &= ok
            left = stop | ~ok
            gone = rows[left]
            converged[rows[stop]] = finite[stop]
            for lane in rows[stop & ~finite]:
                errors[lane] = "non-finite iterate"
            iterations[gone] = it
            final[gone] = x[left]
            keep = ~left
            if not keep.any():
                break
            rows, fx = rows[keep], fx[keep]
            kept = np.flatnonzero(keep).tolist()
            r, bar, mark = ([v[i] for i in kept] for v in (r, bar, mark))
            x, gamma, rest, consts = (np.asfortranarray(a[keep])
                                      for a in (x, gamma, rest, consts))
        else:
            trace.append((rows, residual))
        # a residual that stops improving for _STALL_WINDOW iterations
        # halves the lane's damping
        for i, v in enumerate(r):
            if v < bar[i]:
                bar[i] = 0.99 * v
                mark[i] = it
        if it >= due:
            damp = gamma[:, 0].tolist()
            halve = [i for i, m in enumerate(mark)
                     if it - m >= _STALL_WINDOW and damp[i] > floor]
            gamma[halve] *= 0.5
            rest = 1.0 - gamma
            for i in halve:
                mark[i], damp[i] = it, 0.5 * damp[i]
            due = _STALL_WINDOW + min([m for m, g in zip(mark, damp)
                                       if g > floor], default=opts.max_iter)
        x = rest * x
        x += gamma * fx
    else:
        final[rows] = x
    lane_ids = np.concatenate([r for r, _ in trace])
    values = np.concatenate([v for _, v in trace])
    order = np.argsort(lane_ids, kind="stable")
    histories = np.split(values[order],
                         np.cumsum(np.bincount(lane_ids, minlength=lanes))[:-1])
    return [SolveReport(ansatz=final[i],
                        residual=h[-1].item() if len(h) else math.inf,
                        iterations=int(iterations[i]),
                        converged=bool(converged[i]),
                        residual_history=tuple(h.tolist()),
                        error=errors[i])
            for i, h in enumerate(histories)]


def damped_fixed_point(f, x0, options=None):
    """Iterate x <- (1-damping) x + damping f(x) until the update norm
    drops under tol.

    Works on scalars, arrays and trial points; a trial point is
    flattened once, iterated as a vector and unflattened to call ``f``,
    and an image of another flat width than the start raises
    ``ShapeMismatch``.  A residual that stops improving for a stretch (a
    damping-induced limit cycle) halves the damping factor, down to 1/32
    of the requested value.  Hitting the iteration cap or a domain
    failure of the map is reported through ``converged=False`` (with the
    failure message in ``error``), never raised.  This is the one-lane
    case of ``_iterate``, the loop ``solve_grid`` runs.
    """
    opts = _DEFAULT_OPTIONS if options is None else options
    if isinstance(x0, RsbAnsatz):
        vec = lambda x: _flatten(f(_unflatten(x, x0)))
        rep = _iterate(_lane_step(vec), _flatten(x0)[None], opts)[0]
        return replace(rep, ansatz=_unflatten(rep.ansatz, x0))
    x = np.array(x0, dtype=float)
    if x.size == 0:
        raise RangeViolation("the start must hold at least one entry")
    arg = lambda v: float(v[0]) if x.ndim == 0 else v.reshape(x.shape)
    vec = lambda v: np.asarray(f(arg(v)), dtype=float).reshape(-1)
    rep = _iterate(_lane_step(vec), x.reshape(1, -1), opts)[0]
    return replace(rep, ansatz=arg(rep.ansatz))


def _lane_step(f):
    """A map of one flat vector as a block step over a single lane."""
    def step(_, x):
        try:
            fx = f(x[0])
        except DomainError as exc:
            return np.full_like(x, np.nan), {0: exc}
        if fx.shape != x[0].shape:
            raise ShapeMismatch("the map takes %d flat entries to %d"
                                % (x.shape[1], fx.size))
        return fx[None], {}
    return step


def stationarity_check(pressure_fn, ansatz, step=1e-5):
    """Largest finite-difference derivative of ``pressure_fn`` over the
    free coordinates (magnetization first, then each overlap plateau).

    Central differences by default; an inadmissible perturbation first
    halves the step (up to eight times), then falls back to a one-sided
    second-order stencil so points on the admissible boundary still get
    checked.  This is the one-point case of ``_gradient``.
    """
    grad = _point_gradient(
        lambda v: pressure_fn(replace(ansatz, m=float(v[0]), qs=tuple(v[1:]))),
        np.concatenate([[ansatz.m], ansatz.qs]), step)
    missing = np.flatnonzero(np.isnan(grad))
    if len(missing):
        raise RangeViolation("no admissible finite-difference stencil for "
                             "coordinate %d" % missing[0])
    return float(np.max(np.abs(grad)))


def _point_gradient(at, base, step):
    """``_gradient`` of ``at`` at the single point ``base``; ``at`` may
    raise a domain or admissibility error, which counts as no value."""
    def value(vec):
        try:
            return at(vec)
        except (DomainError, RangeViolation, OrderingViolation):
            return math.nan

    return _gradient(lambda _, rows: np.array([value(v) for v in rows]),
                     base[None], lambda _: at(base), step)[0]


def _gradient(values, x, base, step):
    """The finite-difference gradients of ``stationarity_check`` at every
    row of ``x`` at once, NaN where no stencil is admissible.

    ``values(lane, rows)`` gives the pressures of points ``rows`` near
    the rows ``lane`` of ``x`` (NaN outside the admissible set) and
    ``base(lane)`` those at the rows themselves.  Each entry takes the
    central stencil, else the one-sided one toward the admissible side,
    at the first of nine halving steps where one is admissible.
    """
    n, w = x.shape
    grad = np.full((n, w), np.nan)
    lane, axis = np.repeat(np.arange(n), w), np.tile(np.arange(w), n)

    def at(lane, axis, offset):
        rows = x[lane]
        rows[np.arange(len(lane)), axis] += offset
        return values(lane, rows)

    delta = float(step)
    for _ in range(9):
        hi, lo = at(lane, axis, delta), at(lane, axis, -delta)
        g = (hi - lo) / (2.0 * delta)
        one = np.flatnonzero(np.isnan(hi) != np.isnan(lo))
        if len(one):
            sign = np.where(np.isnan(hi[one]), -1.0, 1.0)
            near = np.where(np.isnan(hi[one]), lo[one], hi[one])
            far = at(lane[one], axis[one], 2.0 * sign * delta)
            keep = ~np.isnan(far)
            one, sign, near, far = one[keep], sign[keep], near[keep], far[keep]
            g[one] = sign * (-3.0 * base(lane[one]) + 4.0 * near - far) / (
                2.0 * delta)
        done = ~np.isnan(g)
        grad[lane[done], axis[done]] = g[done]
        lane, axis = lane[~done], axis[~done]
        if not len(lane):
            break
        delta *= 0.5
    return grad


_MODELS = {"sk": _sk, "hopfield": _hop}


def _model(name):
    """The module of model ``name``: its ``_sce_step``, ``_pressure_block``
    and ``_reported_ps`` take blocks of flat vectors [m, q_1..q_{k+1}]
    with the per-lane constants of its ``_lanes``."""
    if name not in _MODELS:
        raise RangeViolation("model must be 'sk' or 'hopfield', got %r"
                             % name)
    return _MODELS[name]


def default_starts(model, params, k, thetas=()):
    """Warm starts: an aligned high-overlap point and a cold
    low-overlap point.

    Pattern-model starts are floored so the response denominator
    1 - beta (1 - q) begins at 0.5 or better; below that the conjugate
    plateaus explode and the aligned basin is lost.  The plateaus are
    capped at 0.97, or halfway from the floor to 1 where the floor
    passes 0.97 (beta > 50/3), so that they are non-decreasing, within
    [floor, 1] and distinct at k >= 1.
    """
    return [RsbAnsatz(k=k, m=row[0], qs=row[1:], thetas=thetas)
            for row in _start_rows(_model(model), params, k)]


def _start_rows(mod, params, k):
    """The flat vectors [m, q_1..q_{k+1}] of ``default_starts`` (``mod``:
    the model); the plateaus run evenly from a low to a high end, by
    ``np.linspace``'s arithmetic in plain floats."""
    floor = 0.0
    if mod is _hop and params.beta > 0.5:
        floor = 1.0 - 0.5 / params.beta
    cap = 0.97 if floor < 0.97 else 0.5 * (1.0 + floor)
    rows = []
    for m, lo, hi in ((0.999, 0.55, 0.9), (0.0, 0.01, 0.15)):
        lo, hi = max(lo, floor), min(max(hi, floor + 0.1), cap)
        step = (hi - lo) / k if k else 0.0
        rows.append((m, *(i * step + lo for i in range(k)), hi if k else lo))
    return rows


def solve_model(model, params, k=0, thetas=(), spec=None, options=None,
                starts=None):
    """Run the self-consistency iteration from every start and report all
    distinct branches, best pressure first.

    Failed branches (iteration cap, response divergence) are kept in the
    list with ``converged=False`` and no pressure.  This is the
    one-point case of ``solve_grid``.
    """
    return solve_grid(model, [params], k, thetas, spec, options, starts)[0]


def solve_grid(model, params_seq, k=0, thetas=(), spec=None, options=None,
               starts=None):
    """Solve every parameter point of ``params_seq`` and return one
    report list per point, each as ``solve_model`` gives it.

    Every (point, start) pair is one lane of a single damped iteration
    that runs all lanes in lockstep on the one quadrature plan of
    ``thetas``, one block map application per step; lanes are
    independent, so each report is bit for bit the one a separate solve
    of that point and start gives.  Lanes per block are capped so that
    lanes times grid points stays within ``spec.max_tensor_points``;
    the pressures and stationarity checks of a block are block pressure
    calls too (``_finish``).  ``starts`` (default: ``default_starts`` of
    each point) applies to every point; an empty list raises
    ``RangeViolation``, and a start of another depth or other exponents
    than the call's ``ShapeMismatch``.
    """
    mod = _model(model)
    opts = _DEFAULT_OPTIONS if options is None else options
    thetas = tuple(float(t) for t in thetas)
    if starts is not None and len(starts) < 1:
        raise RangeViolation("need at least one start")
    if len(thetas) != k:
        raise RangeViolation("need %d exponents for depth %d, got %d"
                             % (k, k, len(thetas)))
    for start in starts or ():
        if start.thetas != thetas:
            raise ShapeMismatch("a start at depth %d with exponents %r in a "
                                "solve at depth %d with exponents %r"
                                % (start.k, start.thetas, k, thetas))
    points = list(params_seq)
    if starts is None and points:
        # the exponents are checked once, as each start would check them
        RsbAnsatz(k=k, m=0.0, qs=(0.0,) * (k + 1), thetas=thetas)
    lanes = []                      # (point, start index, flat start)
    for p, params in enumerate(points):
        own = (_start_rows(mod, params, k) if starts is None
               else [(start.m,) + start.qs for start in starts])
        lanes.extend((p, i, row) for i, row in enumerate(own))
    plan = level_plan(thetas, spec)
    size = max(1, plan.spec.max_tensor_points // plan.points)
    out = [[] for _ in points]
    for b in range(0, len(lanes), size):
        block = lanes[b:b + size]
        consts = mod._lanes([points[p] for p, _, _ in block])
        x0 = np.array([row for _, _, row in block])
        reps = _iterate(lambda c, x: mod._sce_step(c, plan, x), x0, opts,
                        consts)
        reps = _finish(mod, plan, consts, [index for _, index, _ in block],
                       reps)
        for (p, _, _), rep in zip(block, reps):
            out[p].append(rep)
    for reports in out:
        reports.sort(key=lambda r: (r.pressure is None,
                                    -(r.pressure if r.pressure is not None
                                      else 0.0)))
    return [_dedupe(reports) for reports in out]


# stationarity_check's default step, and the largest gradient of a
# branch flagged stationary
_STEP = 1e-5
_STATIONARY = 1e-5


def _finish(mod, plan, consts, indices, reps):
    """Pressure, stationarity and conjugates of a block of iterated
    lanes of model ``mod``, as ``solve_grid`` reports them; ``consts``
    and ``indices`` hold each lane's constants and start index.  Only
    converged lanes get a pressure and a stationarity.  The reported
    ``ps`` are the model's ``_reported_ps`` of the endpoint, never a
    start's.  The pressures and every stencil of ``_gradient`` are block
    pressure calls, each row bit for bit the public pressure, so every
    number is that of ``stationarity_check`` on the lane; ``stationary``
    flags a gradient within 1e-5.
    """
    x = np.array([rep.ansatz for rep in reps])
    base = [i for i, rep in enumerate(reps) if rep.converged]
    pressure = np.full(len(x), np.nan)
    size = len(x)
    pressure[base], failed = _pressures(mod, plan, consts[base], x[base],
                                        size)
    errors = {base[r]: "%s: %s" % (type(exc).__name__, exc)
              for r, exc in failed.items()}
    conv = [i for i in base if i not in errors]
    grads = np.full(len(x), np.nan)
    if conv:
        def values(lane, rows):
            return _pressures(mod, plan, consts[conv][lane], rows, size)[0]
        grads[conv] = np.abs(_gradient(values, x[conv], pressure[conv].take,
                                       _STEP)).max(axis=1)
    conj = mod._reported_ps(consts, plan, x)
    out = []
    k, nodes, rows = len(plan.thetas), len(plan.nodes[0]), x.tolist()
    for i, (index, rep) in enumerate(zip(indices, reps)):
        ansatz = RsbAnsatz(k=k, m=rows[i][0], qs=rows[i][1:],
                           thetas=plan.thetas, ps=conj[i])
        error = errors.get(i, rep.error)
        p = pressure[i] if rep.converged and error is None else None
        stat = None if math.isnan(grads[i]) else float(grads[i])
        out.append(SolveReport(
            ansatz=ansatz, residual=rep.residual, iterations=rep.iterations,
            converged=rep.converged and i not in errors, pressure=p,
            stationarity=stat,
            stationary=None if stat is None else stat <= _STATIONARY,
            residual_history=rep.residual_history, error=error, start=index,
            nodes=nodes))
    return out


def _pressures(mod, plan, consts, rows, size):
    """Block pressures of flat points: NaN outside the admissible set
    and where the pressure raises a ``DomainError``, returned by row;
    any other failure is raised.  Each call takes at most ``size`` rows,
    the lanes of an iteration step, so it holds no more grid points."""
    m, q = rows[:, 0], rows[:, 1:]
    ok = np.flatnonzero((np.abs(m) <= 1.0) & (q[:, 0] >= 0.0)
                        & (q[:, -1] <= 1.0) & (np.diff(q) >= 0.0).all(axis=1))
    values = np.full(len(rows), np.nan)
    errors = {}
    for part in (ok[a:a + size] for a in range(0, len(ok), size)):
        values[part], _, failed = mod._pressure_block(consts[part], plan,
                                                      rows[part])
        for r, exc in failed.items():
            if not isinstance(exc, DomainError):
                raise exc
            errors[int(part[r])] = exc
    return values, errors


def _dedupe(reports, tol=1e-7):
    """The reports without the later of two converged branches whose
    iterated (m, qs) agree to ``tol``.  The slaved conjugates ``ps`` are
    not compared: a large p (about 100 on a cold pattern model) turns
    an agreement in q far below ``tol`` into a gap above it."""
    kept = []
    for rep in reports:
        a = rep.ansatz
        if not any(rep.converged and other.converged
                   and max(abs(u - v) for u, v in
                           zip((a.m,) + a.qs,
                               (other.ansatz.m,) + other.ansatz.qs)) < tol
                   for other in kept):
            kept.append(rep)
    return kept


@dataclass(frozen=True)
class ThetaExtremum:
    """Outcome of the exponent search: optimized exponents, the solve at
    the optimum, per-exponent degeneracy flags and Hessian diagonal."""

    thetas: tuple
    pressure: float
    report: SolveReport
    degenerate: tuple
    curvature: tuple


def extremize_theta(model, params, k, spec=None, options=None, thetas0=None,
                    tol=1e-3):
    """Minimize the solved pressure (an upper bound, by Guerra) over the
    weight exponents: projected, damped BFGS on its envelope gradient,
    in [THETA_FLOOR, 1 - THETA_FLOOR] and 10 * ``tol`` apart, up to a
    step below ``tol``.  ``curvature`` is the gradient's secant ``tol``
    along each exponent.  A level whose plateaus merge (to the square
    root of the solver's ``tol``) drops out, unmoved, and is flagged
    degenerate and parked mid-bracket.  README has the details."""
    if not 0.0 < tol < math.inf:
        raise BracketViolation("tol must be finite and > 0, got %r" % tol)
    theta = np.array(np.arange(1, k + 1) / (k + 1.0) if thetas0 is None
                     else thetas0, dtype=float)
    sep, hi = 10.0 * tol, 1.0 - THETA_FLOOR
    shift, top = sep * np.arange(k), hi - sep * (k - 1)
    if k < 1 or theta.shape != (k,) or not THETA_FLOOR < top or not (
            (THETA_FLOOR < theta) & (theta < hi)).all():
        raise BracketViolation("need k >= 1 starting exponents in (%g, %g),"
                               " %g apart: %r" % (THETA_FLOOR, hi, sep,
                                                  thetas0))
    mod = _model(model)
    consts = mod._lanes([params])
    gap = math.sqrt((options or _DEFAULT_OPTIONS).tol)
    # floor <= theta_1, theta_a + sep <= theta_{a+1}, theta_k <= hi
    project = lambda th: np.clip(isotonic_nondecreasing(th - shift),
                                 THETA_FLOOR, top) + shift

    def gradient(rep):
        # dP*/dtheta is the stencil at fixed (m, q), since the pressure is
        # stationary in them (and in closed-form conjugates) at a solve
        x = np.array([(rep.ansatz.m,) + rep.ansatz.qs])
        return _point_gradient(lambda th: _pressures(
            mod, level_plan(th, spec), consts, x, 1)[0][0],
            np.array(rep.ansatz.thetas), _STEP)

    def solve(th, warm=None):
        # a merged level stays merged under the map: no warm start
        th = tuple(th.tolist())
        if warm is not None and (np.diff(warm.ansatz.qs) > gap).all():
            rep = solve_model(model, params, k, th, spec, options,
                              [replace(warm.ansatz, thetas=th)])[0]
            if rep.converged:
                return rep
        reports = solve_model(model, params, k, th, spec, options)
        return next((r for r in reports if r.converged), reports[0])

    theta = project(theta)
    rep = solve(theta)
    if not rep.converged:
        return ThetaExtremum(tuple(theta.tolist()), -math.inf, rep,
                             (False,) * k, (0.0,) * k)
    grad = gradient(rep)
    free = np.zeros(k, dtype=bool)
    for _ in range(100):
        # a merged level, or one without a gradient, is not free
        now = (np.diff(rep.ansatz.qs) > gap) & (np.abs(grad) > 0.0)
        if not now.any():
            break
        if (now != free).any():
            # a new model, unbounded: its first step moves each by sep
            free, hessian, reach = now, np.diag(np.abs(grad[now]) / sep), 1.0
        step = np.zeros(k)
        step[free] = -np.linalg.solve(hessian, grad[free])
        move = project(theta + step) - theta
        full = move = move * min(1.0, reach / np.abs(move).max(initial=reach))
        while move.any():
            # projected again: theta + move can round past the floor
            trial = project(theta + move)
            nxt = solve(trial, rep)
            slope = grad[free] @ move[free]
            if np.abs(move).max() <= tol or nxt.converged and (
                    nxt.pressure <= rep.pressure + 1e-4 * slope):
                break
            # the quadratic's minimum, from both pressures and the slope
            t = -slope / (2.0 * (nxt.pressure - rep.pressure - slope)
                          ) if nxt.converged else 0.5
            move = min(max(t, 0.1), 0.5) * move
        if not move.any() or not nxt.converged or nxt.pressure > rep.pressure:
            break
        new_grad = gradient(nxt)
        s, y = (trial - theta)[free], (new_grad - grad)[free]
        bs = hessian @ s
        if s @ y < 0.2 * (s @ bs):
            # concave along s: the model's curvature there falls fivefold
            y = bs + 0.8 * (s @ bs) / (s @ bs - s @ y) * (y - bs)
        hessian += np.outer(y, y) / (s @ y) - np.outer(bs, bs) / (s @ bs)
        # a step cut back bounds the next to twice its length
        reach = 1.0 if move is full else 2.0 * np.abs(move).max()
        theta, rep, grad = trial, nxt, new_grad
        if np.abs(full).max() <= tol:
            break
    degenerate = np.diff(rep.ansatz.qs) <= gap
    for a in np.flatnonzero(degenerate):
        # the midpoint of [theta_{a-1} + sep, theta_{a+1} - sep]
        ends = np.concatenate(([THETA_FLOOR - sep], theta, [hi + sep]))
        theta[a] = 0.5 * (ends[a] + ends[a + 2])
    if degenerate.any():
        rep = solve(theta, rep)
        grad = gradient(rep)
    curvature = np.zeros(k)
    for a in np.flatnonzero(~degenerate):
        h = tol if theta[a] + tol <= hi else -tol
        near = solve(theta + h * (np.arange(k) == a), rep)
        curvature[a] = (gradient(near)[a] - grad[a]) / h
    return ThetaExtremum(tuple(theta.tolist()), rep.pressure, rep,
                         tuple(bool(d) for d in degenerate),
                         tuple(curvature.tolist()))
