"""Command-line front end: solve one parameter point, sweep a grid to
CSV, or run the self-verification suites.

Exit codes: 0 success, 1 flag validation failure, 2 no converged branch
(or a failed verification).  All numeric output uses shortest
round-trip formatting so downstream parsers recover the exact doubles.
"""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import replace

import click

from .core import (
    BudgetExceeded,
    HopfieldParams,
    OrderingViolation,
    QuadratureSpec,
    RangeViolation,
    RsbAnsatz,
    ShapeMismatch,
    SkParams,
)
from .oracle import (
    InterpolationPoint,
    enumerate_hopfield_pressure,
    enumerate_sk_pressure,
    interpolation_derivative_check,
    overlap_histogram,
)
from .hopfield import hop_pressure_krsb, hop_pressure_rs
from .sk import sk_pressure_krsb, sk_pressure_rs
from .solver import SolverOptions, solve_grid, solve_model

# the contract reserves exit code 2 for missing convergence; click's
# default usage-error code collides with it
click.exceptions.UsageError.exit_code = 1

_USAGE_ERRORS = (RangeViolation, OrderingViolation, ShapeMismatch,
                 BudgetExceeded)


@contextmanager
def _usage_errors():
    # bad flag values surface as typed errors deep in the library; report
    # them as usage errors (exit 1), never as tracebacks
    try:
        yield
    except _USAGE_ERRORS as exc:
        raise click.UsageError(str(exc))


def _default_nodes():
    env = os.environ.get("RSB_NODES")
    if env is None:
        return 80
    try:
        return int(env)
    except ValueError:
        raise click.UsageError("RSB_NODES must be an integer, got %r" % env)


def _build_spec(nodes):
    n = _default_nodes() if nodes is None else nodes
    with _usage_errors():
        return QuadratureSpec(nodes_per_level=n)


def _build_params(model, beta, j0, j, alpha):
    if model == "sk":
        if alpha is not None:
            raise click.UsageError("--alpha applies to the hopfield model only")
        kwargs = {"beta": beta}
        if j0 is not None:
            kwargs["j0"] = j0
        if j is not None:
            kwargs["j"] = j
        cls = SkParams
    else:
        if j0 is not None or j is not None:
            raise click.UsageError("--j0/--j apply to the sk model only")
        kwargs = {"beta": beta}
        if alpha is not None:
            kwargs["alpha"] = alpha
        cls = HopfieldParams
    with _usage_errors():
        return cls(**kwargs)


def _setup(model, beta, j0, j, alpha, k, thetas, nodes, damping, tol,
           max_iter, axes=()):
    """The checked point, spec and solver options of solve and sweep."""
    params = _build_params(model, beta, j0, j, alpha)
    if len(thetas) != k:
        raise click.UsageError(
            "depth %d needs exactly %d --theta values, got %d"
            % (k, k, len(thetas)))
    if len(axes) > 2:
        raise click.UsageError("at most two sweep axes are supported")
    spec = _build_spec(nodes)
    with _usage_errors():
        return params, spec, SolverOptions(damping=damping, tol=tol,
                                           max_iter=max_iter)


def _model_options(f):
    opts = [
        click.option("--model", type=click.Choice(["sk", "hopfield"]),
                     required=True, help="Which mean-field model to evaluate."),
        click.option("--beta", type=float, required=True,
                     help="Inverse temperature."),
        click.option("--j0", type=float, default=None,
                     help="Ferromagnetic bias coupling (sk only)."),
        click.option("--j", type=float, default=None,
                     help="Disorder coupling strength (sk only)."),
        click.option("--alpha", type=float, default=None,
                     help="Pattern load per spin (hopfield only)."),
        click.option("--k", type=click.IntRange(min=0), default=0,
                     show_default=True, help="Hierarchy depth."),
        click.option("--theta", "thetas", type=float, multiple=True,
                     help="Weight exponent, once per level (k values)."),
        click.option("--nodes", type=int, default=None,
                     help="Quadrature nodes per level (2 to 1024), at "
                          "most; fewer at deep k so the grid fits the "
                          "budget [default: RSB_NODES or 80]."),
        click.option("--damping", type=float, default=0.5, show_default=True,
                     help="Fixed-point damping factor."),
        click.option("--tol", type=float, default=1e-10, show_default=True,
                     help="Fixed-point residual tolerance: bounds "
                          "max|f(x) - x| at the reported iterate, not its "
                          "distance to the fixed point (about "
                          "tol / (1 - contraction rate))."),
        click.option("--max-iter", type=int, default=20000, show_default=True,
                     help="Iteration cap per start."),
    ]
    for opt in reversed(opts):
        f = opt(f)
    return f


def _branch_dict(index, report):
    return {
        "branch": index,
        "ansatz": report.ansatz.to_dict(),
        "pressure": report.pressure,
        "residual": report.residual,
        "iterations": report.iterations,
        "converged": report.converged,
        "stationarity": report.stationarity,
        "stationary": report.stationary,
    }


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
def main():
    """Replica-symmetric and hierarchical pressure solver."""


@main.command()
@_model_options
def solve(model, beta, j0, j, alpha, k, thetas, nodes, damping, tol, max_iter):
    """Solve one parameter point and print converged branches as JSON."""
    params, spec, options = _setup(model, beta, j0, j, alpha, k, thetas,
                                   nodes, damping, tol, max_iter)
    with _usage_errors():
        reports = solve_model(model, params, k=k, thetas=thetas, spec=spec,
                              options=options)
    branches = [r for r in reports if r.converged]
    payload = [_branch_dict(i, r) for i, r in enumerate(branches)]
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if not branches:
        sys.exit(2)


def _parse_axis(spec_str, model):
    try:
        name, rng = spec_str.split("=", 1)
        lo_s, hi_s, steps_s = rng.split(":")
        lo, hi, steps = float(lo_s), float(hi_s), int(steps_s)
    except ValueError:
        raise click.UsageError(
            "sweep axis must look like name=start:stop:steps, got %r" % spec_str)
    allowed = ("beta", "j0", "j") if model == "sk" else ("beta", "alpha")
    if name not in allowed:
        raise click.UsageError(
            "unknown sweep axis %r for model %s (allowed: %s)"
            % (name, model, ", ".join(allowed)))
    if steps < 1:
        raise click.UsageError("sweep axis needs at least one step")
    if steps == 1:
        values = [lo]
    else:
        values = [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]
    return name, values


def _fmt(value):
    return repr(float(value))


def _sweep_rows(model, params, k, reports):
    param_cells = [_fmt(params.beta)] + (
        [_fmt(params.j0), _fmt(params.j)] if model == "sk"
        else [_fmt(params.alpha)])
    branches = [r for r in reports if r.converged]
    rows = []
    if not branches:
        blank = 2 + (k + 1) * (2 if model == "hopfield" else 1) + 2
        rows.append(param_cells + [""] * blank + ["false"])
        return rows
    for i, rep in enumerate(branches):
        a = rep.ansatz
        cells = list(param_cells)
        cells.append(str(i))
        cells.append(_fmt(a.m))
        cells.extend(_fmt(q) for q in a.qs)
        if model == "hopfield":
            if a.ps is not None:
                cells.extend(_fmt(p) for p in a.ps)
            else:
                cells.extend([""] * (k + 1))
        cells.append(_fmt(rep.pressure))
        cells.append(_fmt(rep.residual))
        cells.append("true")
        rows.append(cells)
    return rows


@main.command()
@_model_options
@click.option("--sweep", "axes", multiple=True,
              help="Grid axis as name=start:stop:steps (max two, row-major).")
@click.option("--out", type=click.Path(dir_okay=False, writable=True),
              default=None, help="Write CSV here instead of standard output.")
def sweep(model, beta, j0, j, alpha, k, thetas, nodes, damping, tol, max_iter,
          axes, out):
    """Sweep a parameter grid and emit one CSV row per converged branch."""
    params, spec, options = _setup(model, beta, j0, j, alpha, k, thetas,
                                   nodes, damping, tol, max_iter, axes)
    parsed = [_parse_axis(a, model) for a in axes]
    if len({name for name, _ in parsed}) < len(parsed):
        raise click.UsageError("sweep axis %r given twice" % parsed[0][0])
    points = [{}]
    for name, values in parsed:
        points = [dict(pt, **{name: v}) for pt in points for v in values]

    with _usage_errors():
        grid = [replace(params, **pt) for pt in points]
        # every point and start in lockstep, one block map step per iteration
        reports = solve_grid(model, grid, k=k, thetas=thetas, spec=spec,
                             options=options)
    results = [_sweep_rows(model, params, k, reps)
               for params, reps in zip(grid, reports)]

    header = ["beta", "j0", "j"] if model == "sk" else ["beta", "alpha"]
    header += ["branch", "m"]
    header += ["q%d" % i for i in range(1, k + 2)]
    if model == "hopfield":
        header += ["p%d" % i for i in range(1, k + 2)]
    header += ["pressure", "residual", "converged"]

    lines = [",".join(header)]
    for rows in results:
        lines.extend(",".join(r) for r in rows)
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# verification suites

def _suite_collapse(n, samples, seed, spec):
    # a degenerate hierarchy (all plateaus equal) must reproduce the flat
    # evaluation exactly; it is evaluated as one level at any --nodes
    checks = []
    for name, params, rs, krsb in (
            ("pairwise", SkParams(beta=1.1, j0=0.3, j=0.9), sk_pressure_rs,
             sk_pressure_krsb),
            ("pattern", HopfieldParams(beta=1.1, alpha=0.08), hop_pressure_rs,
             hop_pressure_krsb)):
        flat = rs(params, 0.3, 0.4, spec=spec).pressure
        for k in (1, 2, 3):
            thetas = tuple((i + 1.0) / (k + 1.0) for i in range(k))
            a = RsbAnsatz(k=k, m=0.3, qs=(0.4,) * (k + 1), thetas=thetas)
            deep = krsb(params, a, spec=spec).pressure
            checks.append(("%s_collapse_k%d" % (name, k), abs(deep - flat),
                           1e-10))
    return checks


def _suite_enumeration(n, samples, seed, spec):
    n = 12 if n is None else n
    samples = 200 if samples is None else samples
    checks = []

    beta = 0.3
    est = enumerate_sk_pressure(SkParams(beta=beta), n=n, samples=samples,
                                seed=seed)
    target = math.log(2.0) + beta * beta / 4.0
    checks.append(("pairwise_high_t_band", abs(est.value - target),
                   3.0 * est.stderr + 0.02))

    nh = min(n + 2, 14)
    hp = HopfieldParams(beta=0.5, alpha=1.0 / nh)
    est_h = enumerate_hopfield_pressure(hp, n=nh, samples=4, seed=seed, p=1)
    reports = solve_model("hopfield", hp, k=0, spec=spec)
    best = next(r.pressure for r in reports if r.converged)
    checks.append(("pattern_single_recall_band", abs(est_h.value - best),
                   3.0 * est_h.stderr + 0.03))
    return checks


def _statistical_row(name, check, rel_tol=1e-2, sigmas=4.0):
    # the Monte Carlo rows are exact only in expectation, so the bound
    # widens to a few standard errors when the sample budget is small
    denom = max(abs(check.fd_lhs), abs(check.bracket_rhs))
    return (name, check.abs_diff, max(rel_tol * denom, sigmas * check.stderr))


def _suite_lemmas(n, samples, seed, spec):
    n = 6 if n is None else n
    samples = 1000 if samples is None else samples
    exact = min(samples, 64)
    # (model, params, point, extra arguments) of each identity family
    flat = ("sk", SkParams(beta=1.0, j0=0.8, j=1.0),
            InterpolationPoint(t=0.5, x=(0.4,), w=0.3), {})
    decoupled = flat[:2] + (InterpolationPoint(t=0.0, x=(0.0,), w=0.3), {})
    onestep = ("sk", SkParams(beta=1.2, j0=0.7, j=1.0),
               InterpolationPoint(t=0.5, x=(0.4, 0.25), w=0.3),
               {"thetas": (0.5,)})
    pattern = ("hopfield", HopfieldParams(beta=0.6, alpha=0.5),
               InterpolationPoint(t=0.5, x=(0.5,), y=(0.6,), z=0.3, w=0.3),
               {"p": 3})
    # (row, family, target, samples, bound); no bound marks a Monte Carlo row
    rows = [("flat_t_identity", flat, "t", samples, None),
            ("flat_x_identity", flat, "x", samples, None),
            ("flat_w_identity", flat, "w", exact, 1e-8),
            ("flat_w_decoupled", decoupled, "w", 8, 1e-10),
            ("onestep_x1_identity", onestep, "x1", samples, None),
            ("onestep_x2_identity", onestep, "x2", samples, None),
            ("onestep_w_identity", onestep, "w", exact, 1e-8)]
    rows += [("pattern_%s_identity" % t, pattern, t, samples, None)
             for t in "txy"]
    rows += [("pattern_%s_identity" % t, pattern, t, exact, 1e-8)
             for t in "zw"]
    checks = []
    for name, (model, params, point, extra), target, count, bound in rows:
        c = interpolation_derivative_check(model, target, point, params, n=n,
                                           samples=count, seed=seed, **extra)
        checks.append(_statistical_row(name, c) if bound is None
                      else (name, c.abs_diff, bound))
    return checks


_STATIONARITY_POINTS = (
    ("sk", SkParams(beta=0.8, j0=0.0, j=1.0), ()),
    ("sk", SkParams(beta=1.6, j0=0.3, j=1.0), ()),
    ("sk", SkParams(beta=1.4, j0=0.0, j=1.0), (0.4,)),
    ("hopfield", HopfieldParams(beta=0.7, alpha=0.1), ()),
    ("hopfield", HopfieldParams(beta=1.6, alpha=0.02), ()),
    ("hopfield", HopfieldParams(beta=1.2, alpha=0.1), (0.3,)),
)


def _suite_stationarity(n, samples, seed, spec):
    # the 1e-5 bound holds only once the quadrature error of Gaussian
    # integration by parts is below it, which 80 nodes per level give
    fine = replace(spec, nodes_per_level=max(spec.nodes_per_level, 80))
    checks = []
    for model, params, thetas in _STATIONARITY_POINTS:
        branches = solve_model(model, params, k=len(thetas), thetas=thetas,
                               spec=fine)
        grads = [b.stationarity for b in branches
                 if b.converged and b.stationarity is not None]
        worst = max(grads) if grads else math.inf
        beta = params.beta
        second = params.j0 if model == "sk" else params.alpha
        name = "%s_k%d_b%s_%s" % (model, len(thetas),
                                  ("%g" % beta), ("%g" % second))
        checks.append((name, worst, 1e-5))
    return checks


def _suite_histogram(n, samples, seed, spec):
    sweeps = 1200 if samples is None else samples
    n_para = 400 if n is None else n
    n_sk = 300 if n is None else n
    checks = []

    para = overlap_histogram(SkParams(beta=0.0, j0=0.0, j=1.0), n_para,
                             sweeps, seed=seed, disorder_samples=1)
    half_bin = float(para.edges[1] - para.edges[0]) / 2.0
    checks.append(("paramagnet_mode_center", abs(para.mode_center), half_bin))
    checks.append(("paramagnet_clt_std",
                   abs(para.std * math.sqrt(n_para) - 1.0), 0.2))

    ferro = overlap_histogram(SkParams(beta=2.0, j0=3.0, j=0.0),
                              max(100, n_para // 2), min(sweeps, 800),
                              seed=seed, disorder_samples=1)
    checks.append(("ferromagnet_top_bin", 1.0 - ferro.mode_center,
                   2.0 * half_bin))

    base = overlap_histogram(SkParams(beta=0.0, j0=0.0, j=1.0), n_sk, sweeps,
                             seed=seed, disorder_samples=2)
    glass = overlap_histogram(SkParams(beta=2.0, j0=0.0, j=1.0), n_sk, sweeps,
                              seed=seed, disorder_samples=2)
    checks.append(("spinglass_broadening", 3.0 * base.std / glass.std, 1.0))
    return checks


_SUITES = {
    "collapse": _suite_collapse,
    "enumeration": _suite_enumeration,
    "histogram": _suite_histogram,
    "lemmas": _suite_lemmas,
    "stationarity": _suite_stationarity,
}


@main.command()
@click.option("--suite", required=True,
              help="Which checks to run: collapse, stationarity, "
                   "enumeration, lemmas or histogram.")
@click.option("--n", type=int, default=None,
              help="System size for finite-size suites.")
@click.option("--samples", type=int, default=None,
              help="Disorder samples for finite-size suites.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Base seed for all sampling.")
@click.option("--nodes", type=int, default=None,
              help="Quadrature nodes per level (2 to 1024), at most; fewer "
                   "at deep k so the grid fits the budget [default: "
                   "RSB_NODES or 80]. "
                   "The stationarity suite solves on at least 80, the "
                   "resolution its bound is calibrated at.")
def verify(suite, n, samples, seed, nodes):
    """Run a named self-check suite and print a pass/fail table."""
    if suite not in _SUITES:
        raise click.UsageError(
            "unknown suite %r (available: %s)" % (suite, ", ".join(sorted(_SUITES))))
    spec = _build_spec(nodes)
    checks = _SUITES[suite](n, samples, seed, spec)
    lines = ["%-28s %13s %13s %s" % ("check", "measured", "bound", "status")]
    passed = 0
    for name, measured, bound in checks:
        ok = measured <= bound
        passed += ok
        lines.append("%-28s %13.6e %13.6e %s"
                     % (name, measured, bound, "PASS" if ok else "FAIL"))
    lines.append("%d/%d checks passed" % (passed, len(checks)))
    sys.stdout.write("\n".join(lines) + "\n")
    if passed != len(checks):
        sys.exit(2)
