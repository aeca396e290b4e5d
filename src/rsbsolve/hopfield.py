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
    Evaluation,
    HopfieldParams,
    RsbAnsatz,
    SusceptibilityDivergence,
    validate_ansatz,
)
from .quadrature import _one_lane, level_plan, plan_log_cosh, plan_moments


@dataclass(frozen=True)
class QDenominators:
    """Linear-response denominators, one per level, outermost first."""

    values: tuple


def _cascade(beta, q, th):
    """Response denominators and closed-form conjugates (rows outermost
    first) of a block of lanes: inverse temperatures ``beta``, overlap
    rows ``q``, exponents ``th``; and a dict from row to the
    ``SusceptibilityDivergence`` of each lane whose cascade reaches a
    non-positive value, innermost first (its rows are NaN).  Each column
    takes the operations of the one-lane recursion in its order, the
    square by ``np.float_power`` (which rounds as Python's ``x ** 2``
    and ``x * x`` does not), so every entry is bit for bit one lane's.
    """
    k = q.shape[1] - 1
    b = beta[:, None]                   # (lanes, 1) columns, joined once
    col = [q] if k == 0 else [q[:, i:i + 1] for i in range(k + 1)]
    qd = [1.0 - b * (1.0 - col[k])]
    for i in range(k - 1, -1, -1):
        qd.append(qd[-1] - b * th[i] * (col[i + 1] - col[i]))
    qd = qd[0] if k == 0 else np.concatenate(qd[::-1], axis=1)
    failed = {}
    if not min(qd.ravel().tolist(), default=math.inf) > 0.0:
        bad = qd <= 0.0
        for r in np.flatnonzero(bad.any(axis=1)).tolist():
            i = int(np.flatnonzero(bad[r])[-1])
            where = "the innermost level" if i == k else "level %d" % (i + 1)
            failed[r] = SusceptibilityDivergence(
                "response denominator %r <= 0 at %s" % (float(qd[r, i]), where))
        qd[list(failed)] = np.nan
    den = [qd] if k == 0 else [qd[:, i:i + 1] for i in range(k + 1)]
    ps = [b * col[0] / np.float_power(den[0], 2)]
    for i in range(1, k + 1):
        ps.append(ps[-1] + b * (col[i] - col[i - 1]) / (den[i] * den[i - 1]))
    return qd, ps[0] if k == 0 else np.concatenate(ps, axis=1), failed


def _one_cascade(params, ansatz):
    """``_cascade`` of one trial point at its lane's response coupling;
    raises on an inadmissible point or a divergence."""
    a = validate_ansatz(ansatz)
    qd, ps = _one_lane(_cascade, _lanes([params])[:, 3], np.array([a.qs]),
                       a.thetas)
    return qd[0], ps[0]


def hop_q_denominators(params, ansatz):
    """Cascade of response denominators for a depth-k ansatz.

    Built top down: the innermost value is 1 - beta*(1 - q_{k+1}) and
    each step outward subtracts beta * theta_a * (q_{a+1} - q_a), beta
    being the response coupling: at zero load it is 0 and every value
    is 1.0.  Any non-positive value raises; this function never returns
    a number in that case.
    """
    return QDenominators(values=tuple(_one_cascade(params, ansatz)[0].tolist()))


def hop_p_closed_form(params, ansatz):
    """Conjugate plateaus slaved to the overlaps.

    p_1 = beta q_1 / Q_1^2 and each increment is
    beta (q_a - q_{a-1}) / (Q_a Q_{a-1}), all 0.0 at zero load.
    """
    return tuple(_one_cascade(params, ansatz)[1].tolist())


def _field_coeffs(alpha_beta, ps):
    """Field coefficients sqrt(alpha beta dp) of non-decreasing
    conjugate plateaus ``ps`` (last axis: the closed form of ordered
    overlaps, never an ansatz's reported ``ps``); ``alpha_beta``
    broadcasts against them."""
    dp = np.asarray(ps, dtype=float)
    if dp.shape[-1] > 1:
        dp = np.concatenate((dp[..., :1], np.diff(dp)), axis=-1)
    return np.sqrt(alpha_beta * dp)


def _pressure_block(lanes, plan, x):
    """Pressures, their terms and a dict from row to each failed lane's
    ``DomainError`` or ``NonFiniteIntegrand`` for a block of admissible
    flat vectors, as ``_sce_step`` takes them (conjugates from their
    closed form at each lane's response coupling).  A lane at
    zero load has unit denominators, zero conjugates and alpha/2 = 0, so
    its load terms are signed zeros.  Each term keeps the one-point formula's
    operation order and ``math.log`` (``np.log`` rounds differently): a
    lane's pressure is bit for bit a block of one's.
    """
    beta, alpha = lanes[:, 0], lanes[:, 1]
    m, q = x[:, 0], x[:, 1:]
    th = plan.thetas
    k = len(th)
    qd, conj, failed = _cascade(lanes[:, 3], q, th)
    half = 0.5 * alpha
    tower, mix = np.zeros(len(x)), np.zeros(len(x))
    for i in range(k):
        tower = tower + _log(qd[:, i + 1] / qd[:, i]) / th[i]
        mix = mix + th[i] * (conj[:, i + 1] * q[:, i + 1] - conj[:, i] * q[:, i])
    field, bad = plan_log_cosh(plan, beta * m,
                               _field_coeffs(lanes[:, 2:3], conj))
    bad.update(failed)
    tower = half * tower
    logterm = -half * _log(qd[:, k])
    qterm = half * beta * q[:, 0] / qd[:, 0]
    nhb = -half * beta
    pterm = nhb * conj[:, k] * (1.0 - q[:, k])
    mix = nhb * mix
    bias = -0.5 * beta * m * m
    terms = {"field": field, "response_tower": tower, "response_log": logterm,
             "overlap_source": qterm, "conjugate_source": pterm + mix,
             "bias_source": bias}
    return field + tower + logterm + qterm + pterm + mix + bias, terms, bad


def _log(v):
    """``math.log`` of every entry of a 1-D array."""
    return np.array([math.log(t) for t in v.tolist()])


def hop_pressure_krsb(params, ansatz, spec=None):
    """Hierarchical trial pressure at a depth-k ansatz.

    The conjugate plateaus come from their closed form at the overlaps;
    ``ansatz.ps`` is a reported value and never read.  At zero storage
    load the pattern layer is absent: the load terms are signed zeros and
    the value is the one-body ferromagnet's, its field term on the rule.
    This is ``_pressure_block`` on a block of one.
    """
    a = validate_ansatz(ansatz)
    pressure, terms = _one_lane(
        _pressure_block, _lanes([params]), level_plan(a.thetas, spec),
        np.array([(a.m,) + a.qs]))
    return Evaluation(pressure=pressure[0],
                      terms={name: float(v[0]) for name, v in terms.items()})


def hop_pressure_rs(params, m, q, spec=None):
    """Flat-ansatz pressure at magnetization ``m`` and overlap ``q``, the
    conjugate at its closed form beta q / (1 - beta (1 - q))^2."""
    return hop_pressure_krsb(params, RsbAnsatz(k=0, m=m, qs=(q,)), spec)


def hop_sce_rs(params, m, q, spec=None):
    """One application of the flat self-consistency map: returns
    (m', q', p') with the conjugate plateau evaluated at the new
    overlap (zero at zero load, where there is no pattern layer)."""
    nxt = hop_sce_krsb(params, RsbAnsatz(k=0, m=m, qs=(q,)), spec)
    return nxt.m, nxt.qs[0], hop_p_closed_form(params, nxt)[0]


def _lanes(params_seq):
    """Per-lane map constants (beta, alpha, alpha beta, g) of a block of
    points, column-major.  g is the response coupling of the cascade:
    beta, or 0 at zero load, where there is no pattern layer, so the
    denominators are 1 and the conjugates and field coefficients 0."""
    if not all(isinstance(p, HopfieldParams) for p in params_seq):
        raise TypeError("params must be HopfieldParams")
    return np.array([(p.beta, p.alpha, p.alpha * p.beta,
                      p.beta if p.alpha else 0.0) for p in params_seq],
                    dtype=float, order="F")


def _sce_step(lanes, plan, x):
    """The self-consistency map on a block of flat vectors
    [m, q_1..q_{k+1}] of admissible points, one row per lane, with
    per-lane constants from ``_lanes`` and the exponents fixed by
    ``plan``.  Field coefficients come from ``_cascade`` at each lane's
    response coupling.

    Returns the mapped block and a dict from row to the ``DomainError``
    of that lane's cascade or the ``NonFiniteIntegrand`` of its field
    (its row is NaN).  A zero-load lane's field coefficients are zero,
    so its row is the one-body map m = tanh(beta m), q_a = m^2 on the
    rule: a few ulp off ``math.tanh`` (at most 3 in m and 6 in q on 80
    nodes).
    """
    _, ps, failed = _cascade(lanes[:, 3], x[:, 1:], plan.thetas)
    out, bad = plan_moments(plan, lanes[:, 0] * x[:, 0],
                            _field_coeffs(lanes[:, 2:3], ps))
    bad.update(failed)
    return out, bad


def hop_sce_krsb(params, ansatz, spec=None):
    """One application of the depth-k self-consistency map with the
    conjugate plateaus eliminated.

    Field coefficients use the closed-form conjugates at the incoming
    overlaps (which must be admissible); ``ansatz.ps`` is a reported
    value and never read.  The returned trial point carries ``ps=None``:
    the conjugates are slaved, so the iteration runs over magnetization
    and overlaps only and the divergence guard fires on iterates, never
    on raw map output.
    """
    a = validate_ansatz(ansatz)
    x = _one_lane(_sce_step, _lanes([params]), level_plan(a.thetas, spec),
                  np.array([(a.m,) + a.qs]))[0]
    return replace(a, m=x[0, 0], qs=x[0, 1:], ps=None)
