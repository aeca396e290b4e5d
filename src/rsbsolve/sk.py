"""Variational pressure and self-consistency maps of the two-body
random-interaction model with a ferromagnetic bias.

The hierarchical trial pressure is a nested Gaussian free-energy term
plus two algebraic sources; its stationary points are reproduced by the
telescopic tanh averages of ``nested_moments``, which is checked
numerically by the test suite rather than assumed.  The flat (``_rs``)
forms are the depth-0 case of the hierarchical ones.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .core import Evaluation, RsbAnsatz, SkParams, validate_ansatz
from .quadrature import _one_lane, level_plan, plan_log_cosh, plan_moments


def _lanes(params_seq):
    """Per-lane constants (beta j0, beta j, beta, j0) of a block of
    points, column-major; the map reads the first two."""
    if not all(isinstance(p, SkParams) for p in params_seq):
        raise TypeError("params must be SkParams")
    return np.array([(p.beta * p.j0, p.beta * p.j, p.beta, p.j0)
                     for p in params_seq], dtype=float, order="F")


def _field(lanes, x):
    """Field offsets and coefficients of a block of flat vectors
    [m, q_1..q_{k+1}], one row per lane."""
    dq = x[:, 1:]
    if dq.shape[1] > 1:
        dq = np.concatenate((dq[:, :1], np.diff(dq)), axis=1)
    return lanes[:, 0] * x[:, 0], lanes[:, 1, None] * np.sqrt(dq)


def _sce_step(lanes, plan, x):
    """The self-consistency map on a block of flat vectors of admissible
    points, with per-lane constants from ``_lanes`` and the exponents
    fixed by ``plan``.  Returns the mapped block and a dict from row to
    the ``NonFiniteIntegrand`` of each lane whose field is not finite
    (its row is NaN)."""
    return plan_moments(plan, *_field(lanes, x))


def _pressure_block(lanes, plan, x):
    """Pressures, their terms and a dict from row to each failed lane's
    ``NonFiniteIntegrand`` for a block of admissible flat vectors, as
    ``_sce_step`` takes them.  Each term keeps the one-point formula's
    operation order (the square by ``np.float_power``, which rounds as
    Python's ``** 2``): a lane's pressure is bit for bit a block of one's.
    """
    field, failed = plan_log_cosh(plan, *_field(lanes, x))
    q = x[:, 1:]
    dth = np.subtract(plan.thetas + (1.0,), (0.0,) + plan.thetas)
    bracket = 1.0 - 2.0 * q[:, -1] + np.vecdot(q * q, dth)
    overlap = 0.25 * np.float_power(lanes[:, 1], 2) * bracket
    bias = -0.5 * lanes[:, 2] * lanes[:, 3] * x[:, 0] * x[:, 0]
    terms = {"field": field, "overlap_source": overlap, "bias_source": bias}
    return field + overlap + bias, terms, failed


def sk_pressure_rs(params, m, q, spec=None):
    """Flat-ansatz pressure at magnetization ``m`` and overlap ``q``."""
    return sk_pressure_krsb(params, RsbAnsatz(k=0, m=m, qs=(q,)), spec)


def sk_sce_rs(params, m, q, spec=None):
    """One application of the flat self-consistency map: returns
    (m', q')."""
    nxt = sk_sce_krsb(params, RsbAnsatz(k=0, m=m, qs=(q,)), spec)
    return nxt.m, nxt.qs[0]


def sk_pressure_krsb(params, ansatz, spec=None):
    """Hierarchical trial pressure at a depth-k ansatz.

    The nested field average already carries the log 2 of the innermost
    kernel, so at zero coupling the value is exactly log 2.  This is
    ``_pressure_block`` on a block of one.
    """
    a = validate_ansatz(ansatz)
    pressure, terms = _one_lane(_pressure_block, _lanes([params]),
                                level_plan(a.thetas, spec),
                                np.array([(a.m,) + a.qs]))
    return Evaluation(pressure=pressure[0],
                      terms={name: float(v[0]) for name, v in terms.items()})


def sk_sce_krsb(params, ansatz, spec=None):
    """One application of the depth-k self-consistency map.

    The exponents are passed through untouched.
    """
    a = validate_ansatz(ansatz)
    x = _one_lane(_sce_step, _lanes([params]), level_plan(a.thetas, spec),
                  np.array([(a.m,) + a.qs]))[0]
    return replace(a, m=x[0, 0], qs=x[0, 1:])
