"""Reference values computed with the benchmark's own Gauss-Hermite rule.

Nothing here imports the package under test: every pressure, map and
finite-size value the checks compare against is transcribed from the
model definitions and evaluated on plain numpy tensor grids, so a check
does not pass merely because the program agrees with itself.
"""

import math
from functools import lru_cache

import numpy as np


class Inadmissible(ValueError):
    """The trial point is outside the domain of the closed form."""


@lru_cache(maxsize=None)
def gauss_hermite(n):
    """Nodes and weights of an n-point rule for one standard normal."""
    x, w = np.polynomial.hermite.hermgauss(n)
    return x * math.sqrt(2.0), w / math.sqrt(math.pi)


def _log2cosh(x):
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax))


def nested_field_term(offset, coeffs, thetas, nodes):
    """E_1 [ (1/t_1) log E_2 [ ... E_{k+1} [ (2 cosh g)^{t_k} ]^{t_{k-1}/t_k} ... ] ]
    on a full tensor grid, g = offset + sum_a coeffs[a] * h_a."""
    h, w = gauss_hermite(nodes)
    k = len(thetas)
    g = np.full((nodes,) * (k + 1), float(offset))
    for a, c in enumerate(coeffs):
        shape = [1] * (k + 1)
        shape[a] = nodes
        g = g + float(c) * h.reshape(shape)
    layer = _log2cosh(g)
    logw = np.log(w)
    exps = list(thetas) + [1.0]
    for a in range(k, 0, -1):
        s = (exps[a - 1] / exps[a]) * layer + logw
        top = s.max(axis=-1)
        layer = top + np.log(np.exp(s - top[..., None]).sum(axis=-1))
    return float(w @ np.atleast_1d(layer)) / exps[0]


def _check_plateaus(m, qs, thetas):
    if not -1.0 <= m <= 1.0:
        raise Inadmissible("m outside [-1, 1]")
    if any(q < 0.0 or q > 1.0 for q in qs):
        raise Inadmissible("plateau outside [0, 1]")
    if any(b < a for a, b in zip(qs, qs[1:])):
        raise Inadmissible("plateaus decrease")
    if len(thetas) != len(qs) - 1:
        raise Inadmissible("need one exponent per interior level")


def sk_pressure(beta, j0, j, m, qs, thetas, nodes):
    """Depth-k trial pressure of the biased pairwise spin glass."""
    _check_plateaus(m, qs, thetas)
    dq = np.diff(np.concatenate([[0.0], qs]))
    field = nested_field_term(beta * j0 * m, beta * j * np.sqrt(dq),
                              thetas, nodes)
    bracket = (1.0 - qs[-1]) ** 2 - sum(
        t * (qs[a + 1] ** 2 - qs[a] ** 2) for a, t in enumerate(thetas))
    return field + 0.25 * (beta * j) ** 2 * bracket - 0.5 * beta * j0 * m * m


def hop_denominators(beta, qs, thetas):
    """Response denominators Q_1..Q_{k+1}, innermost built first."""
    k = len(thetas)
    qd = [0.0] * (k + 1)
    qd[k] = 1.0 - beta * (1.0 - qs[k])
    for a in range(k - 1, -1, -1):
        qd[a] = qd[a + 1] - beta * thetas[a] * (qs[a + 1] - qs[a])
    if min(qd) <= 0.0:
        raise Inadmissible("response denominator <= 0")
    return qd


def hop_conjugates(beta, qs, thetas):
    qd = hop_denominators(beta, qs, thetas)
    ps = [beta * qs[0] / qd[0] ** 2]
    for a in range(1, len(qs)):
        ps.append(ps[-1] + beta * (qs[a] - qs[a - 1]) / (qd[a - 1] * qd[a]))
    return ps, qd


def hop_pressure(beta, alpha, m, qs, thetas, nodes):
    """Depth-k trial pressure of the associative memory with the
    conjugate plateaus at their closed form."""
    _check_plateaus(m, qs, thetas)
    k = len(thetas)
    if alpha == 0.0:
        return (nested_field_term(beta * m, [0.0] * (k + 1), thetas, nodes)
                - 0.5 * beta * m * m)
    ps, qd = hop_conjugates(beta, qs, thetas)
    dp = np.diff(np.concatenate([[0.0], ps]))
    field = nested_field_term(beta * m, np.sqrt(alpha * beta * dp), thetas,
                              nodes)
    value = (field
             - 0.5 * alpha * math.log(qd[k])
             + 0.5 * alpha * beta * qs[0] / qd[0]
             - 0.5 * beta * m * m
             - 0.5 * alpha * beta * ps[k] * (1.0 - qs[k]))
    for a, t in enumerate(thetas):
        value += 0.5 * alpha / t * math.log(qd[a + 1] / qd[a])
        value -= 0.5 * alpha * beta * t * (ps[a + 1] * qs[a + 1]
                                           - ps[a] * qs[a])
    return value


def pressure(model, params, m, qs, thetas, nodes):
    if model == "sk":
        beta, j0, j = params
        return sk_pressure(beta, j0, j, m, qs, thetas, nodes)
    beta, alpha = params
    return hop_pressure(beta, alpha, m, qs, thetas, nodes)


def flat_map(model, params, m, q, nodes):
    """One application of the k=0 self-consistency map: (m', q')."""
    h, w = gauss_hermite(nodes)
    if model == "sk":
        beta, j0, j = params
        g = beta * j0 * m + beta * j * math.sqrt(q) * h
    else:
        beta, alpha = params
        p = hop_conjugates(beta, [q], [])[0][0]
        g = beta * m + math.sqrt(alpha * beta * p) * h
    t = np.tanh(g)
    return float(w @ t), float(w @ (t * t))


def hop_retrieval_overlap(beta, alpha, nodes=80):
    """Retrieval magnetization of the flat pattern-model equations, by
    plain damped iteration from the aligned state."""
    m, q = 1.0, 1.0
    for _ in range(20000):
        mn, qn = flat_map("hopfield", (beta, alpha), m, q, nodes)
        if max(abs(mn - m), abs(qn - q)) < 1e-13:
            return mn
        m, q = 0.5 * (m + mn), 0.5 * (q + qn)
    raise ArithmeticError("reference retrieval iteration did not settle")


def stationarity(model, params, m, qs, thetas, nodes, step=1e-5):
    """Largest finite-difference derivative of the reference pressure
    over (m, q_1..q_{k+1}); central where both probes are admissible,
    otherwise a one-sided second-order stencil."""
    base = np.concatenate([[m], qs])

    def at(vec):
        return pressure(model, params, float(vec[0]), list(vec[1:]), thetas,
                        nodes)

    def probe(i, d):
        vec = base.copy()
        vec[i] += d
        try:
            return at(vec)
        except Inadmissible:
            return None

    worst = 0.0
    f0 = at(base)
    for i in range(base.size):
        hi, lo = probe(i, step), probe(i, -step)
        if hi is not None and lo is not None:
            grad = (hi - lo) / (2.0 * step)
        else:
            sign = 1.0 if hi is not None else -1.0
            near = hi if hi is not None else lo
            far = probe(i, 2.0 * sign * step)
            if near is None or far is None:
                raise Inadmissible("no admissible stencil for coordinate %d" % i)
            grad = sign * (-3.0 * f0 + 4.0 * near - far) / (2.0 * step)
        worst = max(worst, abs(grad))
    return worst


def curie_weiss_log_partition(beta, n):
    """Exact log Z / n of one binary pattern stored on n sites with
    self-pairs included: Z = sum_k C(n, k) exp(beta (n - 2k)^2 / (2n))."""
    terms = [math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
             + beta * (n - 2 * i) ** 2 / (2.0 * n) for i in range(n + 1)]
    top = max(terms)
    return (top + math.log(sum(math.exp(t - top) for t in terms))) / n
