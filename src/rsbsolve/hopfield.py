"""Variational pressure and self-consistency maps of the
associative-memory model at extensive storage load.

Integrating out the pattern layer leaves a cascade of linear-response
denominators; whenever one of them reaches zero the trial point is
outside the domain of the closed form and a SusceptibilityDivergence is
raised instead of returning a number.  The conjugate plateaus are slaved
to the overlap plateaus through an exact closed form, so the solvers
only ever iterate magnetization and overlaps.  The flat (``_rs``) forms
are the depth-0 case of the hierarchical ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DomainError,
    Evaluation,
    HopfieldParams,
    RangeViolation,
    RsbAnsatz,
    SusceptibilityDivergence,
    validate_ansatz,
)
from .quadrature import level_plan, nested_log_cosh_expect, plan_moments


@dataclass(frozen=True)
class QDenominators:
    """Linear-response denominators, one per level, outermost first."""

    values: tuple


def _denominators(beta, q, th):
    """Response cascade of overlaps ``q`` and exponents ``th`` (plain
    floats); raises on the first non-positive value."""
    k = len(th)
    vals = [0.0] * (k + 1)
    vals[k] = 1.0 - beta * (1.0 - q[k])
    if vals[k] <= 0.0:
        raise SusceptibilityDivergence(
            "response denominator %r <= 0 at the innermost level" % vals[k])
    for i in range(k - 1, -1, -1):
        vals[i] = vals[i + 1] - beta * th[i] * (q[i + 1] - q[i])
        if vals[i] <= 0.0:
            raise SusceptibilityDivergence(
                "response denominator %r <= 0 at level %d" % (vals[i], i + 1))
    return vals


def _conjugates(beta, q, qd):
    """Closed-form conjugate plateaus from overlaps and denominators."""
    ps = [beta * q[0] / qd[0] ** 2]
    for i in range(1, len(q)):
        ps.append(ps[-1] + beta * (q[i] - q[i - 1]) / (qd[i] * qd[i - 1]))
    return ps


def hop_q_denominators(params, ansatz):
    """Cascade of response denominators for a depth-k ansatz.

    Built top down: the innermost value is 1 - beta*(1 - q_{k+1}) and
    each step outward subtracts beta * theta_a * (q_{a+1} - q_a).  Any
    non-positive value raises; this function never returns a number in
    that case.
    """
    a = validate_ansatz(ansatz)
    vals = _denominators(params.beta, a.qs, a.thetas)
    return QDenominators(values=tuple(vals))


def hop_p_closed_form(params, ansatz):
    """Conjugate plateaus slaved to the overlaps.

    p_1 = beta q_1 / Q_1^2 and each increment is
    beta (q_a - q_{a-1}) / (Q_a Q_{a-1}).
    """
    a = validate_ansatz(ansatz)
    qd = _denominators(params.beta, a.qs, a.thetas)
    return tuple(_conjugates(params.beta, a.qs, qd))


def _field_coeffs(alpha_beta, ps):
    """Field coefficients sqrt(alpha beta dp) of conjugate plateaus
    ``ps`` (last axis); ``alpha_beta`` broadcasts against them."""
    p = np.asarray(ps, dtype=float)
    dp = p.copy()
    dp[..., 1:] = p[..., 1:] - p[..., :-1]
    if (dp < 0.0).any():
        raise RangeViolation("conjugate plateaus must be non-decreasing")
    return np.sqrt(alpha_beta * dp)


def _hop_terms(params, ansatz, ps, qd):
    alpha, beta = params.alpha, params.beta
    q = np.asarray(ansatz.qs, dtype=float)
    th = np.asarray(ansatz.thetas, dtype=float)
    p = np.asarray(ps, dtype=float)
    qdv = np.asarray(qd, dtype=float)
    k = ansatz.k
    tower = 0.5 * alpha * sum(
        math.log(qdv[i + 1] / qdv[i]) / th[i] for i in range(k))
    logterm = -0.5 * alpha * math.log(qdv[k])
    qterm = 0.5 * alpha * beta * q[0] / qdv[0]
    pterm = -0.5 * alpha * beta * p[k] * (1.0 - q[k])
    mix = -0.5 * alpha * beta * sum(
        th[i] * (p[i + 1] * q[i + 1] - p[i] * q[i]) for i in range(k))
    return tower, logterm, qterm, pterm, mix


def hop_pressure_krsb(params, ansatz, spec=None):
    """Hierarchical trial pressure at a depth-k ansatz.

    When ``ansatz.ps`` is None the conjugate plateaus are filled from
    their closed form.  At zero storage load the pattern layer is absent
    and the value reduces exactly to the one-body ferromagnet.
    """
    if not isinstance(params, HopfieldParams):
        raise TypeError("params must be HopfieldParams")
    a = validate_ansatz(ansatz)
    alpha, beta = params.alpha, params.beta
    if alpha == 0.0:
        # no pattern layer: the response cascade and its guard drop out
        field = nested_log_cosh_expect(beta * a.m, np.zeros(a.k + 1),
                                       a.thetas, spec)
        pressure = field - 0.5 * beta * a.m * a.m
        return Evaluation(pressure=pressure,
                          terms={"field": field, "load_terms": 0.0,
                                 "bias_source": -0.5 * beta * a.m * a.m})
    qd = _denominators(beta, a.qs, a.thetas)
    ps = a.ps if a.ps is not None else _conjugates(beta, a.qs, qd)
    field = nested_log_cosh_expect(beta * a.m,
                                   _field_coeffs(alpha * beta, ps),
                                   a.thetas, spec)
    tower, logterm, qterm, pterm, mix = _hop_terms(params, a, ps, qd)
    bias = -0.5 * beta * a.m * a.m
    pressure = field + tower + logterm + qterm + pterm + mix + bias
    return Evaluation(pressure=pressure,
                      terms={"field": field, "response_tower": tower,
                             "response_log": logterm, "overlap_source": qterm,
                             "conjugate_source": pterm + mix,
                             "bias_source": bias})


def hop_pressure_rs(params, m, q, p=None, spec=None):
    """Flat-ansatz pressure; ``p`` defaults to its closed form
    beta q / (1 - beta (1 - q))^2."""
    ps = None if p is None else (p,)
    return hop_pressure_krsb(params, RsbAnsatz(k=0, m=m, qs=(q,), ps=ps), spec)


def hop_sce_rs(params, m, q, spec=None):
    """One application of the flat self-consistency map: returns
    (m', q', p') with the conjugate plateau evaluated at the new
    overlap (zero at zero load, where there is no pattern layer)."""
    nxt = hop_sce_krsb(params, RsbAnsatz(k=0, m=m, qs=(q,)), spec)
    p = hop_p_closed_form(params, nxt)[0] if params.alpha > 0.0 else 0.0
    return nxt.m, nxt.qs[0], p


def _lanes(params_seq):
    """Per-lane map constants (beta, alpha, alpha beta) of a block of
    points."""
    return np.array([(p.beta, p.alpha, p.alpha * p.beta) for p in params_seq],
                    dtype=float)


def _sce_step(lanes, plan, x, ps=None):
    """The self-consistency map on a block of flat vectors
    [m, q_1..q_{k+1}] of admissible points, one row per lane, with
    per-lane constants from ``_lanes`` and the exponents fixed by
    ``plan`` (unused at zero load).  Field coefficients come from the
    rows of ``ps`` when given, else from the closed-form conjugates at
    the incoming overlaps.

    Returns the mapped block and a dict from row to the
    ``DomainError`` that lane's conjugates raised, or the
    ``NonFiniteIntegrand`` of its field (its row is NaN).  The
    conjugates stay plain-float arithmetic, one lane at a time.
    """
    out = np.full(x.shape, np.nan)
    failed = {}
    loaded, conj = [], []
    for i, ((beta, alpha, _), row) in enumerate(zip(lanes.tolist(),
                                                    x.tolist())):
        if alpha == 0.0:
            # no pattern layer: every plateau is the squared magnetization
            m = math.tanh(beta * row[0])
            out[i] = m * m
            out[i, 0] = m
            continue
        if ps is not None:
            conj.append(ps[i])
        else:
            q = row[1:]
            try:
                conj.append(_conjugates(beta, q,
                                        _denominators(beta, q, plan.thetas)))
            except DomainError as exc:
                failed[i] = exc
                continue
        loaded.append(i)
    if loaded:
        out[loaded], bad = plan_moments(
            plan, lanes[loaded, 0] * x[loaded, 0],
            _field_coeffs(lanes[loaded, 2:], conj))
        failed.update((loaded[i], exc) for i, exc in bad.items())
    return out, failed


def hop_sce_krsb(params, ansatz, spec=None):
    """One application of the depth-k self-consistency map with the
    conjugate plateaus eliminated.

    Field coefficients use the incoming conjugate plateaus when given,
    otherwise their closed form at the incoming overlaps (which must be
    admissible).  The returned trial point always carries ``ps=None``:
    the conjugates are slaved, so the iteration runs over magnetization
    and overlaps only and the divergence guard fires on iterates, never
    on raw map output.
    """
    a = validate_ansatz(ansatz)
    # zero load needs no plan, so its exponents skip the quadrature floor
    plan = level_plan(a.thetas, spec) if params.alpha != 0.0 else None
    x, failed = _sce_step(_lanes([params]), plan, np.array([(a.m,) + a.qs]),
                          None if a.ps is None else [a.ps])
    if failed:
        raise failed[0]
    return replace(a, m=x[0, 0], qs=x[0, 1:], ps=None)
