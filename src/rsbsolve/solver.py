"""Damped fixed-point iteration, stationarity checks and exponent
optimization.

The driver is generic: it iterates any map over scalars, arrays or
hierarchical trial points.  Trial-point iterates are projected back onto
the admissible set (clipped magnetization, clipped non-decreasing
plateaus) after every damped step, which keeps every intermediate state
constructible.  ``solve_model`` runs the same loop on flat vectors with
each model's array-level map step and one quadrature plan per start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

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


def _projection(k):
    """Projection of a flat iterate [m, q_1..q_{k+1}, (p_1..)] onto the
    admissible set: clipped magnetization, clipped non-decreasing
    overlaps, non-negative non-decreasing conjugates.  Plain floats,
    since the vectors are a handful of entries long."""
    def project(vec):
        v = vec.tolist()
        out = [min(1.0, max(-1.0, v[0]))]
        out += _pool_adjacent([0.0 if q < 0.0 else 1.0 if q > 1.0 else q
                               for q in v[1:k + 2]])
        out += _pool_adjacent([max(0.0, p) for p in v[k + 2:]])
        return np.array(out)
    return project


_STALL_WINDOW = 300


def _iterate(f, x, opts, project):
    """The damped loop over flat float vectors; returns a SolveReport
    whose ``ansatz`` is the last point ``f`` was evaluated at."""
    history = []
    converged = False
    error = None
    iterations = 0
    gamma = opts.damping
    best = math.inf
    since_best = 0
    for iterations in range(1, opts.max_iter + 1):
        try:
            fx = f(x)
        except DomainError as exc:
            error = "%s: %s" % (type(exc).__name__, exc)
            break
        residual = float(np.max(np.abs(fx - x)))
        history.append(residual)
        if not math.isfinite(residual):
            error = "non-finite iterate"
            break
        if residual <= opts.tol:
            converged = True
            break
        if residual < 0.99 * best:
            best = residual
            since_best = 0
        else:
            since_best += 1
            if since_best >= _STALL_WINDOW and gamma > opts.damping / 32.0:
                gamma *= 0.5
                since_best = 0
        x = project((1.0 - gamma) * x + gamma * fx)
    return SolveReport(
        ansatz=x,
        residual=history[-1] if history else float("inf"),
        iterations=iterations,
        converged=converged,
        residual_history=tuple(history),
        error=error,
    )


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
    raised.
    """
    opts = _DEFAULT_OPTIONS if options is None else options
    if isinstance(x0, RsbAnsatz):
        rep = _iterate(lambda x: _flatten(f(_unflatten(x, x0))), _flatten(x0),
                       opts, _projection(x0.k))
        return rep.with_fields(ansatz=_unflatten(rep.ansatz, x0))
    scalar = np.ndim(x0) == 0
    call = (lambda x: f(float(x[0]))) if scalar else f
    rep = _iterate(lambda x: np.atleast_1d(np.asarray(call(x), dtype=float)),
                   np.atleast_1d(np.asarray(x0, dtype=float)).copy(), opts,
                   lambda x: x)
    return rep.with_fields(ansatz=float(rep.ansatz[0])) if scalar else rep


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
    if model == "hopfield":
        # conjugate plateaus stay eliminated so the check differentiates
        # the reduced functional
        return lambda a: _hop.hop_pressure_krsb(
            params, replace(a, ps=None), spec).pressure
    raise RangeViolation("model must be 'sk' or 'hopfield', got %r" % model)


# the map on flat vectors [m, q_1..q_{k+1}], keyed like _pressure_fn
_SCE_STEPS = {"sk": _sk._sce_step, "hopfield": _hop._sce_step}


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
    list with ``converged=False`` and no pressure.
    """
    opts = _DEFAULT_OPTIONS if options is None else options
    spec = spec if spec is not None else QuadratureSpec()
    thetas = tuple(float(t) for t in thetas)
    if len(thetas) != k:
        raise RangeViolation("need %d exponents for depth %d, got %d"
                             % (k, k, len(thetas)))
    if starts is None:
        starts = default_starts(model, params, k, thetas, opts.multistart)
    pfn = _pressure_fn(model, params, spec)
    reports = []
    for start in starts:
        if model == "hopfield" and start.ps is not None:
            # the map iterates with slaved conjugates
            start = replace(start, ps=None)
        # one plan per start, then every step works on flat vectors
        step = partial(_SCE_STEPS[model], params,
                       level_plan(start.thetas, spec))
        rep = _iterate(step, np.array((start.m,) + start.qs), opts,
                       _projection(start.k))
        rep = rep.with_fields(ansatz=replace(start, m=rep.ansatz[0],
                                             qs=rep.ansatz[1:]))
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
        if (model == "hopfield" and params.alpha > 0.0
                and isinstance(rep.ansatz, RsbAnsatz)):
            try:
                rep = rep.with_fields(ansatz=replace(
                    rep.ansatz, ps=_hop.hop_p_closed_form(params, rep.ansatz)))
            except DomainError:
                pass
        reports.append(rep.with_fields(pressure=pressure, stationarity=stat))
    reports.sort(key=lambda r: (r.pressure is None,
                                -(r.pressure if r.pressure is not None else 0.0)))
    return _dedupe(reports)


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


def golden_section_max(fn, lo, hi, tol=1e-3):
    """Deterministic golden-section maximizer on [lo, hi]."""
    if not (lo < hi):
        raise BracketViolation("empty bracket [%r, %r]" % (lo, hi))
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol:
        if fc >= fd:
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
    """Coordinate-wise golden-section search for the exponents that
    maximize the solved pressure.

    Each exponent moves inside (0.01, 0.99), clipped away from its
    neighbours; an exponent whose pressure profile is flat across its
    bracket (a dangling level) is parked at the bracket midpoint and
    flagged degenerate.
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

    def solved_pressure(th_vec):
        key = tuple(round(t, 12) for t in th_vec)
        if key not in cache:
            reports = solve_model(model, params, k, tuple(th_vec), spec, options)
            best = next((r.pressure for r in reports
                         if r.converged and r.pressure is not None), None)
            cache[key] = -math.inf if best is None else best
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
                return solved_pressure(probe)

            probes = [fn(lo), fn(0.5 * (lo + hi)), fn(hi)]
            finite = [abs(p) for p in probes if p != -math.inf]
            scale = max([1.0] + finite)
            if max(probes) - min(probes) < _FLAT_EPS * scale:
                thetas[i] = 0.5 * (lo + hi)
                degenerate[i] = True
                curvature[i] = 0.0
                continue
            t_star = golden_section_max(fn, lo, hi, tol)
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
