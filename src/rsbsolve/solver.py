"""Damped fixed-point iteration, stationarity checks and exponent
optimization.

The driver is generic: it iterates any map over scalars, arrays or
hierarchical trial points.  Trial-point iterates are projected back onto
the admissible set (clipped magnetization, clipped non-decreasing
plateaus) after every damped step, which keeps every intermediate state
constructible.  One loop serves everything: it iterates a block of
lanes in lockstep, and ``solve_grid`` makes every (parameter point,
start) pair a lane, mapped on flat vectors by each model's block step
with one quadrature plan per exponent set; ``solve_model`` and
``damped_fixed_point`` are its one-point and one-lane cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    BracketViolation,
    DomainError,
    OrderingViolation,
    QuadratureSpec,
    RangeViolation,
    RsbAnsatz,
    SolveReport,
)
from . import hopfield as _hop
from . import sk as _sk
from .quadrature import level_plan


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
    multistart: bool = True

    def __post_init__(self):
        object.__setattr__(self, "damping", float(self.damping))
        object.__setattr__(self, "tol", float(self.tol))
        object.__setattr__(self, "max_iter", int(self.max_iter))
        if not (0.0 < self.damping <= 1.0):
            raise RangeViolation("damping must lie in (0, 1], got %r" % self.damping)
        if self.tol <= 0.0:
            raise RangeViolation("tol must be > 0")
        if self.max_iter < 1:
            raise RangeViolation("max_iter must be >= 1")


_DEFAULT_OPTIONS = SolverOptions()


def isotonic_nondecreasing(y):
    """Least-squares projection onto non-decreasing sequences (pool
    adjacent violators, unit weights)."""
    return np.array(_pool_adjacent(np.asarray(y, dtype=float).tolist()))


def _pool_adjacent(values):
    vals = []
    counts = []
    for v in values:
        vals.append(v)
        counts.append(1)
        while len(vals) > 1 and vals[-2] > vals[-1]:
            total = counts[-1] + counts[-2]
            merged = (vals[-1] * counts[-1] + vals[-2] * counts[-2]) / total
            vals.pop()
            counts.pop()
            vals[-1] = merged
            counts[-1] = total
    out = []
    for v, c in zip(vals, counts):
        out += [v] * c
    return out


def _flatten(ansatz):
    parts = [[ansatz.m], ansatz.qs]
    if ansatz.ps is not None:
        parts.append(ansatz.ps)
    return np.concatenate(parts)


def _unflatten(vec, template):
    k = template.k
    ps = None if template.ps is None else vec[k + 2:2 * k + 3]
    return replace(template, m=vec[0], qs=vec[1:k + 2], ps=ps)


def _projection(k, width=None):
    """Projection of a block of flat iterates [m, q_1..q_{k+1}, (p_1..)]
    of ``width`` entries (default k+2), one row per lane, onto the
    admissible set: clipped magnetization, clipped non-decreasing
    overlaps, non-negative non-decreasing conjugates.

    The loop only projects finite rows, where min(hi, max(lo, v)) per
    entry gives the values of the plain-float clips (a plateau at -0.0
    comes out +0.0; the model maps never produce one).  Only rows with
    a decreasing adjacent pair go through pool adjacent violators, which
    leaves every other row as it is.
    """
    width = k + 2 if width is None else width
    lo = np.zeros(width)
    lo[0] = -1.0
    hi = np.full(width, math.inf)
    hi[:k + 2] = 1.0
    parts = [part for part in (slice(1, k + 2), slice(k + 2, width))
             if part.stop - part.start > 1]

    def project(x):
        x = np.minimum(np.maximum(x, lo), hi)
        for part in parts:
            block = x[:, part]
            bad = (block[:, :-1] > block[:, 1:]).any(axis=1)
            if bad.any():
                for i in np.flatnonzero(bad):
                    block[i] = _pool_adjacent(block[i].tolist())
        return x
    return project


_STALL_WINDOW = 300


def _iterate(step, x, opts, project=None):
    """The damped loop over a block of lanes.

    ``x`` holds one flat start vector per lane and ``step(rows, xs)``
    maps the iterates ``xs`` of the block rows ``rows`` still running,
    returning the mapped rows and a dict from position in ``xs`` to the
    ``DomainError`` or ``NonFiniteIntegrand`` of each lane whose map
    failed.  Every lane keeps its own damping factor, stall counter and
    residual history, and leaves the block when it converges, fails or
    goes non-finite, so each lane's numbers are those of a block of
    one.  Returns one SolveReport
    per lane; its ``ansatz`` is the last point the map was evaluated at,
    or the next damped step when the iteration cap stops the lane.
    """
    lanes = len(x)
    final = x.copy()
    iterations = np.full(lanes, opts.max_iter)
    converged = np.zeros(lanes, dtype=bool)
    errors = [None] * lanes
    floor = opts.damping / 32.0
    # per running lane, aligned with ``rows``
    rows = np.arange(lanes)
    gamma = np.full(lanes, opts.damping)
    best = np.full(lanes, math.inf)
    since_best = np.zeros(lanes, dtype=int)
    trace = []                      # (rows, residuals) per iteration
    for it in range(1, opts.max_iter + 1):
        fx, failed = step(rows, x)
        residual = np.max(np.abs(fx - x), axis=1)
        finite = np.isfinite(residual)
        stop = ~finite | (residual <= opts.tol)
        if failed:
            ok = np.ones(len(rows), dtype=bool)
            for i, exc in failed.items():
                ok[i] = False
                errors[rows[i]] = "%s: %s" % (type(exc).__name__, exc)
            trace.append((rows[ok], residual[ok]))
            stop &= ok
            left = stop | ~ok
        else:
            trace.append((rows, residual))
            left = stop
        if left.any():
            gone = rows[left]
            converged[rows[stop]] = finite[stop]
            for lane in rows[stop & ~finite]:
                errors[lane] = "non-finite iterate"
            iterations[gone] = it
            final[gone] = x[left]
            keep = ~left
            if not keep.any():
                break
            rows, x, fx, residual = rows[keep], x[keep], fx[keep], residual[keep]
            gamma, best, since_best = gamma[keep], best[keep], since_best[keep]
        # a residual that stops improving halves the lane's damping
        better = residual < 0.99 * best
        best = np.where(better, residual, best)
        since_best += 1
        since_best[better] = 0
        halve = (since_best >= _STALL_WINDOW) & (gamma > floor)
        if halve.any():
            gamma = np.where(halve, gamma * 0.5, gamma)
            since_best[halve] = 0
        g = gamma[:, None]
        x = (1.0 - g) * x + g * fx
        if project is not None:
            x = project(x)
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
    flattened once, iterated as a vector and projected back onto the
    admissible set after every damped step.  A residual that stops
    improving for a stretch (a damping-induced limit cycle) halves the
    damping factor, down to 1/32 of the requested value.  Hitting the
    iteration cap or a domain failure of the map is reported through
    ``converged=False`` (with the failure message in ``error``), never
    raised.  This is the one-lane case of the loop ``solve_grid`` runs.
    """
    opts = _DEFAULT_OPTIONS if options is None else options
    if isinstance(x0, RsbAnsatz):
        vec = lambda x: _flatten(f(_unflatten(x, x0)))
        flat = _flatten(x0)
        rep = _iterate(_one_lane(vec), flat[None], opts,
                       _projection(x0.k, flat.size))[0]
        return rep.with_fields(ansatz=_unflatten(rep.ansatz, x0))
    if np.ndim(x0) == 0:
        vec = lambda x: np.atleast_1d(np.asarray(f(float(x[0])), dtype=float))
        rep = _iterate(_one_lane(vec), np.array([[x0]], dtype=float), opts)[0]
        return rep.with_fields(ansatz=float(rep.ansatz[0]))
    x = np.array(x0, dtype=float)
    vec = lambda v: np.asarray(f(v.reshape(x.shape)), dtype=float).reshape(-1)
    rep = _iterate(_one_lane(vec), x.reshape(1, -1), opts)[0]
    return rep.with_fields(ansatz=rep.ansatz.reshape(x.shape))


def _one_lane(f):
    """A map of one flat vector as a block step over a single lane."""
    def step(rows, x):
        try:
            return f(x[0])[None], {}
        except DomainError as exc:
            return np.full_like(x, np.nan), {0: exc}
    return step


def stationarity_check(pressure_fn, ansatz, step=1e-5):
    """Largest finite-difference derivative of ``pressure_fn`` over the
    free coordinates (magnetization first, then each overlap plateau).

    Central differences by default; an inadmissible perturbation first
    halves the step (up to eight times), then falls back to a one-sided
    second-order stencil so points on the admissible boundary still get
    checked.
    """
    coords = 1 + len(ansatz.qs)
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
    grad = np.zeros(coords)
    for i in range(coords):
        delta = float(step)
        value = None
        for _ in range(9):
            hi = probe(i, delta)
            lo = probe(i, -delta)
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
                    value = sign * (-3.0 * f0 + 4.0 * near - far) / (2.0 * delta)
                    break
            delta *= 0.5
        if value is None:
            raise RangeViolation(
                "no admissible finite-difference stencil for coordinate %d" % i)
        grad[i] = value
    return float(np.max(np.abs(grad)))


def _pressure_fn(model, params, spec):
    if model == "sk":
        return lambda a: _sk.sk_pressure_krsb(params, a, spec).pressure
    # conjugate plateaus stay eliminated so the check differentiates the
    # reduced functional
    return lambda a: _hop.hop_pressure_krsb(
        params, replace(a, ps=None), spec).pressure


# the map on blocks of flat vectors [m, q_1..q_{k+1}] and the per-lane
# constants it reads, keyed like _pressure_fn
_SCE_STEPS = {"sk": (_sk._sce_step, _sk._lanes),
              "hopfield": (_hop._sce_step, _hop._lanes)}


def default_starts(model, params, k, thetas=(), multistart=True):
    """Warm starts: an aligned high-overlap point and a cold
    low-overlap point.

    Pattern-model starts are floored so the response denominator
    1 - beta (1 - q) begins at 0.5 or better; below that the conjugate
    plateaus explode and the aligned basin is lost.
    """
    floor = 0.0
    if model == "hopfield" and params.beta > 0.5:
        floor = 1.0 - 0.5 / params.beta
    lo_hot, hi_hot = max(0.55, floor), min(max(0.9, floor + 0.1), 0.97)
    lo_cold, hi_cold = max(0.01, floor), min(max(0.15, floor + 0.1), 0.97)
    hot = RsbAnsatz(k=k, m=0.999,
                    qs=tuple(np.linspace(lo_hot, hi_hot, k + 1)),
                    thetas=thetas, ps=None)
    cold = RsbAnsatz(k=k, m=0.0,
                     qs=tuple(np.linspace(lo_cold, hi_cold, k + 1)),
                     thetas=thetas, ps=None)
    return [hot, cold] if multistart else [hot]


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
    that runs all lanes in lockstep, one block map application per step;
    lanes are independent, so each report is bit for bit the one a
    separate solve of that point and start gives.  Lanes per block are
    capped so that lanes times grid points stays within
    ``spec.max_tensor_points``.  ``starts`` (default: ``default_starts``
    of each point) applies to every point.
    """
    opts = _DEFAULT_OPTIONS if options is None else options
    spec = spec if spec is not None else QuadratureSpec()
    thetas = tuple(float(t) for t in thetas)
    if len(thetas) != k:
        raise RangeViolation("need %d exponents for depth %d, got %d"
                             % (k, k, len(thetas)))
    points = list(params_seq)
    lanes = []                      # (point, start index, start)
    for p, params in enumerate(points):
        own = starts
        if own is None:
            own = default_starts(model, params, k, thetas, opts.multistart)
        for i, start in enumerate(own):
            if model == "hopfield" and start.ps is not None:
                # the map iterates with slaved conjugates
                start = replace(start, ps=None)
            lanes.append((p, i, start))
    if model not in _SCE_STEPS:
        raise RangeViolation("model must be 'sk' or 'hopfield', got %r"
                             % model)
    step, constants = _SCE_STEPS[model]
    # one plan per distinct exponent set (a caller's start may carry its
    # own), then blocks of lanes that share it
    groups = {}
    for lane, (_, _, start) in enumerate(lanes):
        groups.setdefault(start.thetas, []).append(lane)
    iterated = [None] * len(lanes)
    for th, members in groups.items():
        plan = level_plan(th, spec)
        size = max(1, spec.max_tensor_points
                   // math.prod(len(n) for n in plan.nodes))
        project = _projection(len(th))
        for b in range(0, len(members), size):
            block = members[b:b + size]
            consts = constants([points[lanes[j][0]] for j in block])
            x0 = np.array([(lanes[j][2].m,) + lanes[j][2].qs for j in block])
            reps = _iterate(
                lambda rows, x, c=consts, pl=plan: step(c[rows], pl, x),
                x0, opts, project)
            for j, rep in zip(block, reps):
                iterated[j] = rep
    out = [[] for _ in points]
    for (p, i, start), rep in zip(lanes, iterated):
        rep = rep.with_fields(start=i, ansatz=replace(
            start, m=rep.ansatz[0], qs=rep.ansatz[1:]))
        out[p].append(_finish(model, points[p], spec, rep))
    for reports in out:
        reports.sort(key=lambda r: (r.pressure is None,
                                    -(r.pressure if r.pressure is not None
                                      else 0.0)))
    return [_dedupe(reports) for reports in out]


def _finish(model, params, spec, rep):
    """Pressure, stationarity and closed-form conjugates of one iterated
    lane."""
    pfn = _pressure_fn(model, params, spec)
    pressure = None
    stat = None
    if rep.error is None:
        try:
            pressure = pfn(rep.ansatz)
        except DomainError as exc:
            rep = rep.with_fields(error="%s: %s" % (type(exc).__name__, exc),
                                  converged=False)
    if rep.converged:
        try:
            stat = stationarity_check(pfn, rep.ansatz)
        except (DomainError, RangeViolation, OrderingViolation):
            stat = None
    if model == "hopfield" and params.alpha > 0.0:
        try:
            rep = rep.with_fields(ansatz=replace(
                rep.ansatz, ps=_hop.hop_p_closed_form(params, rep.ansatz)))
        except DomainError:
            pass
    return rep.with_fields(pressure=pressure, stationarity=stat)


def _dedupe(reports, tol=1e-7):
    kept = []
    for rep in reports:
        duplicate = False
        for other in kept:
            if (rep.converged and other.converged
                    and isinstance(rep.ansatz, RsbAnsatz)
                    and np.max(np.abs(_flatten(rep.ansatz)
                                      - _flatten(other.ansatz))) < tol):
                duplicate = True
                break
        if not duplicate:
            kept.append(rep)
    return kept


@dataclass(frozen=True)
class ThetaExtremum:
    """Outcome of the exponent search: optimized exponents, the solve at
    the optimum, per-exponent degeneracy flags and central second
    differences."""

    thetas: tuple
    pressure: float
    report: SolveReport
    degenerate: tuple
    curvature: tuple


def golden_section_min(fn, lo, hi, tol=1e-3):
    """Deterministic golden-section minimizer on [lo, hi]."""
    if not (lo < hi):
        raise BracketViolation("empty bracket [%r, %r]" % (lo, hi))
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return (a + b) / 2.0


_THETA_LO = 0.01
_THETA_HI = 0.99
_FLAT_EPS = 1e-11


def extremize_theta(model, params, k, spec=None, options=None, thetas0=None,
                    sweeps=2, tol=1e-3):
    """Coordinate-wise golden-section search over the exponents of the
    solved pressure (the largest pressure over the converged branches).

    The exponents minimize it, for both models: Guerra's broken-replica
    bound makes the pressure an upper bound for every trial exponent, so
    the best bound is the lowest.  Maximizing would walk back to the
    flat branch, where the exponent drops out.  A point where no start
    converges counts as +inf.

    Each exponent moves inside (0.01, 0.99), clipped away from its
    neighbours; an exponent whose pressure profile is flat across its
    bracket (a dangling level) is parked at the bracket midpoint and
    flagged degenerate.  ``curvature`` holds central second differences
    of the solved pressure at the optimum.
    """
    if k < 1:
        raise BracketViolation("no exponents to optimize at depth 0")
    spec = spec if spec is not None else QuadratureSpec()
    if thetas0 is None:
        thetas = list((np.arange(1, k + 1)) / (k + 1.0))
    else:
        thetas = [float(t) for t in thetas0]
        if len(thetas) != k:
            raise BracketViolation("need %d starting exponents" % k)
    for t in thetas:
        if not (_THETA_LO < t < _THETA_HI):
            raise BracketViolation(
                "starting exponent %r outside (%g, %g)" % (t, _THETA_LO, _THETA_HI))
    cache = {}

    def solved_objective(th_vec):
        key = tuple(round(t, 12) for t in th_vec)
        if key not in cache:
            reports = solve_model(model, params, k, tuple(th_vec), spec, options)
            best = next((r.pressure for r in reports
                         if r.converged and r.pressure is not None), None)
            cache[key] = math.inf if best is None else best
        return cache[key]

    sep = 10.0 * tol
    degenerate = [False] * k
    curvature = [0.0] * k
    for _ in range(sweeps):
        for i in range(k):
            lo = _THETA_LO + tol if i == 0 else thetas[i - 1] + sep
            hi = _THETA_HI - tol if i == k - 1 else thetas[i + 1] - sep
            if not (lo < hi):
                raise BracketViolation(
                    "no room for exponent %d inside (%r, %r)" % (i + 1, lo, hi))

            def fn(t, i=i):
                probe = list(thetas)
                probe[i] = t
                return solved_objective(probe)

            probes = [fn(lo), fn(0.5 * (lo + hi)), fn(hi)]
            finite = [abs(p) for p in probes if p != math.inf]
            scale = max([1.0] + finite)
            if max(probes) - min(probes) < _FLAT_EPS * scale:
                thetas[i] = 0.5 * (lo + hi)
                degenerate[i] = True
                curvature[i] = 0.0
                continue
            t_star = golden_section_min(fn, lo, hi, tol)
            thetas[i] = t_star
            degenerate[i] = False
            h = max(tol, 1e-3)
            f0 = fn(t_star)
            fp = fn(min(hi, t_star + h))
            fm = fn(max(lo, t_star - h))
            curvature[i] = (fp - 2.0 * f0 + fm) / (h * h)
    reports = solve_model(model, params, k, tuple(thetas), spec, options)
    best = next((r for r in reports if r.converged and r.pressure is not None),
                reports[0])
    return ThetaExtremum(thetas=tuple(thetas),
                         pressure=best.pressure if best.pressure is not None
                         else -math.inf,
                         report=best,
                         degenerate=tuple(degenerate),
                         curvature=tuple(curvature))
