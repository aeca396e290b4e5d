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
from .quadrature import level_plan, nested_log_cosh_expect, plan_moments


def _field(params, m, qs):
    q = np.asarray(qs, dtype=float)
    dq = q - np.concatenate(([0.0], q[:-1]))
    coeffs = params.beta * params.j * np.sqrt(dq)
    offset = params.beta * params.j0 * m
    return offset, coeffs


def _sce_step(params, plan, x):
    """The self-consistency map on the flat vector [m, q_1..q_{k+1}] of
    an admissible point, with the exponents fixed by ``plan``."""
    return plan_moments(plan, *_field(params, x[0], x[1:]))


def _overlap_source(params, ansatz):
    q = np.asarray(ansatz.qs, dtype=float)
    th = np.concatenate([[0.0], np.asarray(ansatz.thetas, dtype=float), [1.0]])
    bracket = 1.0 - 2.0 * q[-1] + float(np.dot(np.diff(th), q ** 2))
    return 0.25 * (params.beta * params.j) ** 2 * bracket


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
    kernel, so at zero coupling the value is exactly log 2.
    """
    if not isinstance(params, SkParams):
        raise TypeError("params must be SkParams")
    a = validate_ansatz(ansatz)
    offset, coeffs = _field(params, a.m, a.qs)
    field = nested_log_cosh_expect(offset, coeffs, a.thetas, spec)
    overlap = _overlap_source(params, a)
    bias = -0.5 * params.beta * params.j0 * a.m * a.m
    return Evaluation(pressure=field + overlap + bias,
                      terms={"field": field, "overlap_source": overlap,
                             "bias_source": bias})


def sk_sce_krsb(params, ansatz, spec=None):
    """One application of the depth-k self-consistency map.

    The exponents are passed through untouched.
    """
    a = validate_ansatz(ansatz)
    x = _sce_step(params, level_plan(a.thetas, spec), np.array((a.m,) + a.qs))
    return replace(a, m=x[0], qs=x[1:])
