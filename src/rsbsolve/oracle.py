"""Finite-size cross-checks: exact enumeration, Metropolis sampling and
derivative identities of the interpolating finite-volume pressure.

Everything here is quenched: the disorder average is always a mean of
per-sample log partition functions, never a log of a mean.  Randomness
flows through counter-based substreams keyed by (seed, sample index, ...)
so any value is reproducible bit for bit regardless of call order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import logsumexp

from .core import HopfieldParams, RangeViolation, SkParams


def substream(seed, *key):
    """Independent deterministic generator for (seed, key...)."""
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class Estimate:
    """Sample mean with its standard error."""

    value: float
    stderr: float


@dataclass(frozen=True)
class SkDisorderSample:
    """One realization of the pairwise couplings (bias included,
    zero diagonal)."""

    n: int
    matrix: np.ndarray


@dataclass(frozen=True)
class HopfieldDisorderSample:
    """One realization of the pattern matrix: first row is the retrieved
    binary pattern, remaining rows are noise patterns."""

    n: int
    p: int
    patterns: np.ndarray


def sk_disorder_sample(params, n, rng):
    z = rng.standard_normal((n, n))
    zu = np.triu(z, 1)
    zs = zu + zu.T
    j = params.j0 / n + params.j * zs / math.sqrt(n)
    np.fill_diagonal(j, 0.0)
    return SkDisorderSample(n=n, matrix=j)


def hopfield_disorder_sample(params, n, rng, p=None, boolean_patterns=False):
    if p is None:
        p = max(1, math.ceil(params.alpha * n))
    pats = np.empty((p, n))
    pats[0] = rng.integers(0, 2, size=n) * 2.0 - 1.0
    if p > 1:
        if boolean_patterns:
            pats[1:] = rng.integers(0, 2, size=(p - 1, n)) * 2.0 - 1.0
        else:
            pats[1:] = rng.standard_normal((p - 1, n))
    return HopfieldDisorderSample(n=n, p=p, patterns=pats)


@lru_cache(maxsize=32)
def _state_matrix(n):
    # all 2^n spin configurations as +-1 rows
    idx = np.arange(2 ** n, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(n)) & 1
    s = bits.astype(float) * 2.0 - 1.0
    s.setflags(write=False)
    return s


def _mean_se(values):
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    if values.size < 2:
        return Estimate(value=mean, stderr=0.0)
    return Estimate(value=mean,
                    stderr=float(values.std(ddof=1) / math.sqrt(values.size)))


# ---------------------------------------------------------------------------
# exact enumeration (Gray-code walk, incremental energies)

def _gray_energies_sk(j):
    n = j.shape[0]
    sigma = -np.ones(n)
    phi = j @ sigma
    e = -0.5 * float(sigma @ phi)
    out = np.empty(2 ** n)
    out[0] = e
    for i in range(1, 2 ** n):
        b = (i & -i).bit_length() - 1
        e += 2.0 * sigma[b] * phi[b]
        phi -= 2.0 * sigma[b] * j[:, b]
        sigma[b] = -sigma[b]
        out[i] = e
    return out


def _gray_energies_hopfield(patterns):
    p, n = patterns.shape
    sigma = -np.ones(n)
    o = patterns @ sigma
    out = np.empty(2 ** n)
    out[0] = -float(o @ o) / (2.0 * n)
    for i in range(1, 2 ** n):
        b = (i & -i).bit_length() - 1
        o -= 2.0 * sigma[b] * patterns[:, b]
        sigma[b] = -sigma[b]
        out[i] = -float(o @ o) / (2.0 * n)
    return out


def enumerate_sk_pressure(params, n, samples=1, seed=0):
    """Quenched finite-size pressure by exact enumeration (n <= 20)."""
    if not 1 <= n <= 20:
        raise RangeViolation("n must lie in [1, 20] for enumeration")
    vals = []
    for s in range(samples):
        sample = sk_disorder_sample(params, n, substream(seed, 0, s))
        energies = _gray_energies_sk(sample.matrix)
        vals.append(float(logsumexp(-params.beta * energies)) / n)
    return _mean_se(vals)


def enumerate_hopfield_pressure(params, n, samples=1, seed=0, p=None,
                                boolean_patterns=False):
    """Quenched finite-size pressure by exact enumeration (n <= 18).

    The energy couples every pattern to every ordered site pair,
    self-pairs included, so a single one-site pattern gives exactly
    log 2 + beta/2.
    """
    if not 1 <= n <= 18:
        raise RangeViolation("n must lie in [1, 18] for enumeration")
    vals = []
    for s in range(samples):
        sample = hopfield_disorder_sample(params, n, substream(seed, 1, s),
                                          p=p, boolean_patterns=boolean_patterns)
        energies = _gray_energies_hopfield(sample.patterns)
        vals.append(float(logsumexp(-params.beta * energies)) / n)
    return _mean_se(vals)


# ---------------------------------------------------------------------------
# Metropolis sampling

def _hop_chain(patterns, beta, n, sweeps, rng, sigma):
    o = patterns @ sigma
    colsq = (patterns ** 2).sum(axis=0)
    m_trace = np.empty(sweeps)
    e_trace = np.empty(sweeps)
    for t in range(sweeps):
        # random site choices keep the chain mixing even when every
        # proposal is accepted (deterministic sweeps lock up at beta=0)
        sites = rng.integers(0, n, size=n)
        u = rng.random(n)
        for k in range(n):
            b = sites[k]
            col = patterns[:, b]
            dh = (2.0 / n) * (sigma[b] * float(col @ o) - colsq[b])
            if dh <= 0.0 or u[k] < math.exp(-beta * dh):
                o -= 2.0 * sigma[b] * col
                sigma[b] = -sigma[b]
        m_trace[t] = o[0] / n
        e_trace[t] = -float(o @ o) / (2.0 * n * n)
    return m_trace, e_trace


def _sk_chain(j, beta, n, sweeps, rng, sigma, record=None):
    """Random-site Metropolis chain on pairwise couplings ``j``, flipping
    ``sigma`` in place; returns the per-sweep magnetization and energy
    per site.  ``record``, an (r, n) array, receives the spins after
    each of the last r sweeps."""
    phi = j @ sigma
    energy = -0.5 * float(sigma @ phi)
    m_trace = np.empty(sweeps)
    e_trace = np.empty(sweeps)
    for t in range(sweeps):
        sites = rng.integers(0, n, size=n)
        u = rng.random(n)
        for k in range(n):
            b = sites[k]
            dh = 2.0 * sigma[b] * phi[b]
            if dh <= 0.0 or u[k] < math.exp(-beta * dh):
                energy += dh
                phi -= 2.0 * sigma[b] * j[:, b]
                sigma[b] = -sigma[b]
        m_trace[t] = sigma.mean()
        e_trace[t] = energy / n
        if record is not None and t >= sweeps - len(record):
            record[t - sweeps + len(record)] = sigma
    return m_trace, e_trace


def _batch_estimate(trace, batches=20):
    trace = np.asarray(trace, dtype=float)
    nb = min(batches, trace.size)
    means = np.array([chunk.mean() for chunk in np.array_split(trace, nb)])
    return _mean_se(means)


@dataclass(frozen=True)
class MetropolisResult:
    """Chain averages over the measurement window: overlap with the
    retrieved pattern (plain magnetization for pairwise couplings) and
    energy per site."""

    overlap: Estimate
    energy: Estimate


def metropolis_run(params, n, sweeps, seed=0, p=None, boolean_patterns=False,
                   burn_in=None):
    """Random-site single-flip Metropolis estimate of overlap and energy.

    For pattern models the chain starts aligned with the retrieved
    pattern and reports the overlap with it; for pairwise-coupling models
    it starts at random and reports the plain magnetization.  Errors are
    batch-mean standard errors over the measurement window.
    """
    burn = sweeps // 2 if burn_in is None else burn_in
    if burn >= sweeps:
        raise RangeViolation("burn_in must leave measurement sweeps")
    if isinstance(params, HopfieldParams):
        sample = hopfield_disorder_sample(params, n, substream(seed, 2, 0),
                                          p=p, boolean_patterns=boolean_patterns)
        sigma = sample.patterns[0].copy()
        m_tr, e_tr = _hop_chain(sample.patterns, params.beta, n, sweeps,
                                substream(seed, 2, 1), sigma)
    elif isinstance(params, SkParams):
        sample = sk_disorder_sample(params, n, substream(seed, 3, 0))
        sigma = (substream(seed, 3, 1).integers(0, 2, size=n) * 2.0 - 1.0)
        m_tr, e_tr = _sk_chain(sample.matrix, params.beta, n, sweeps,
                               substream(seed, 3, 2), sigma)
    else:
        raise TypeError("params must be SkParams or HopfieldParams")
    return MetropolisResult(overlap=_batch_estimate(m_tr[burn:]),
                            energy=_batch_estimate(e_tr[burn:]))


def metropolis_state_trace(params, n, sweeps, seed=0, couplings=None):
    """Per-sweep configuration indices of a pairwise-coupling chain
    (small n only); used for occupancy checks against the exact
    Boltzmann weights."""
    if n > 16:
        raise RangeViolation("state traces are limited to n <= 16")
    if couplings is None:
        couplings = sk_disorder_sample(params, n, substream(seed, 3, 0)).matrix
    sigma = (substream(seed, 3, 1).integers(0, 2, size=n) * 2.0 - 1.0)
    spins = np.empty((sweeps, n))
    _sk_chain(couplings, params.beta, n, sweeps, substream(seed, 3, 2),
              sigma, record=spins)
    return (spins > 0).astype(np.int64) @ (1 << np.arange(n))


@dataclass(frozen=True)
class OverlapHistogram:
    """Two-replica overlap samples binned on [-1, 1]."""

    edges: np.ndarray
    counts: np.ndarray
    mean: float
    std: float
    n_samples: int

    @property
    def mode_center(self):
        i = int(np.argmax(self.counts))
        return float(0.5 * (self.edges[i] + self.edges[i + 1]))

    def to_csv(self):
        lines = ["bin_lo,bin_hi,count"]
        for i, c in enumerate(self.counts):
            lines.append("%s,%s,%d" % (repr(float(self.edges[i])),
                                       repr(float(self.edges[i + 1])), int(c)))
        return "\n".join(lines) + "\n"


def overlap_histogram(params, n, sweeps, seed=0, disorder_samples=2, bins=41):
    """Histogram of the overlap between two independent replicas sharing
    each coupling sample.  Both chains start fully aligned, so a strong
    ferromagnet concentrates in the top bin."""
    qs = []
    burn = sweeps // 2
    for d in range(disorder_samples):
        sample = sk_disorder_sample(params, n, substream(seed, 4, d))
        traces = [np.empty((sweeps - burn, n)) for _ in range(2)]
        for r, tr in enumerate(traces):
            _sk_chain(sample.matrix, params.beta, n, sweeps,
                      substream(seed, 4, d, r + 1), np.ones(n), record=tr)
        qs.extend(((traces[0] * traces[1]).mean(axis=1)).tolist())
    qs = np.asarray(qs)
    edges = np.linspace(-1.0, 1.0, bins + 1)
    counts, _ = np.histogram(qs, bins=edges)
    return OverlapHistogram(edges=edges, counts=counts,
                            mean=float(qs.mean()), std=float(qs.std()),
                            n_samples=qs.size)


# ---------------------------------------------------------------------------
# derivative identities of the interpolating finite-volume pressure

@dataclass(frozen=True)
class InterpolationPoint:
    """Coordinates of the interpolating pressure: time ``t``, one site
    field variance per hierarchy level in ``x``, hidden-layer field
    variances ``y``, hidden self-coupling ``z``, bias field ``w``.
    ``level`` selects the component for level-resolved targets."""

    t: float = 0.0
    x: tuple = ()
    y: tuple = ()
    z: float = 0.0
    w: float = 0.0
    level: int = 1


@dataclass(frozen=True)
class DerivativeCheck:
    """Finite-difference derivative against its algebraic bracket; the
    stderr is the standard error of the per-sample difference (zero for
    identities with deterministic coefficients)."""

    fd_lhs: float
    bracket_rhs: float
    abs_diff: float
    rel_diff: float
    stderr: float


def _richardson(f, p0, delta, richardson):
    d1 = (f(p0 + delta) - f(p0 - delta)) / (2.0 * delta)
    if not richardson:
        return d1
    d2 = (f(p0 + 0.5 * delta) - f(p0 - 0.5 * delta)) / delta
    return (4.0 * d2 - d1) / 3.0


def _softmax(logw):
    mx = logw.max()
    w = np.exp(logw - mx)
    return w / w.sum()


# -- flat-level pairwise model ----------------------------------------------

class _SkRsSample:
    def __init__(self, params, n, rng):
        self.n = n
        self.s = _state_matrix(n)
        z = rng.standard_normal((n, n))
        self.b2 = (params.j * math.sqrt(2.0) / (2.0 * math.sqrt(n))) * \
            np.einsum("si,ij,sj->s", self.s, z, self.s)
        self.h = rng.standard_normal(n)
        self.hs = self.s @ self.h
        self.msum = self.s.sum(axis=1)

    def logw(self, params, t, x, w):
        beta, j0 = params.beta, params.j0
        return beta * (math.sqrt(t) * self.b2
                       + math.sqrt(x) * self.hs
                       + t * 0.5 * j0 * self.msum ** 2 / self.n
                       + w * j0 * self.msum)

    def value(self, params, t, x, w):
        return float(logsumexp(self.logw(params, t, x, w))) / self.n

    def brackets(self, params, t, x, w):
        beta, j0, j = params.beta, params.j0, params.j
        p = _softmax(self.logw(params, t, x, w))
        om_i = p @ self.s
        om_ij = self.s.T @ (p[:, None] * self.s)
        q2 = float((om_ij ** 2).mean())
        m2 = float(om_ij.mean())
        q1 = float((om_i ** 2).mean())
        m1 = float(om_i.mean())
        return {
            "t": 0.25 * beta ** 2 * j ** 2 * (1.0 - q2) + 0.5 * beta * j0 * m2,
            "x": 0.5 * beta ** 2 * (1.0 - q1),
            "w": beta * j0 * m1,
        }


# -- one-step hierarchical pairwise model -----------------------------------

class _Sk1rsbSample:
    def __init__(self, params, n, rng, inner):
        self.n = n
        self.s = _state_matrix(n)
        z = rng.standard_normal((n, n))
        self.b2 = (params.j * math.sqrt(2.0) / (2.0 * math.sqrt(n))) * \
            np.einsum("si,ij,sj->s", self.s, z, self.s)
        self.h1s = self.s @ rng.standard_normal(n)
        self.h2s = self.s @ rng.standard_normal((n, inner))   # states x inner
        self.msum = self.s.sum(axis=1)

    def _log_inner(self, params, theta, t, x1, x2, w):
        beta, j0 = params.beta, params.j0
        base = beta * (math.sqrt(t) * self.b2
                       + math.sqrt(x1) * self.h1s
                       + t * 0.5 * j0 * self.msum ** 2 / self.n
                       + w * j0 * self.msum)
        logw = base[:, None] + params.beta * math.sqrt(x2) * self.h2s
        logz2 = logsumexp(logw, axis=0)                        # per inner draw
        return logw, logz2

    def value(self, params, theta, t, x1, x2, w):
        _, logz2 = self._log_inner(params, theta, t, x1, x2, w)
        inner = logz2.size
        return float(logsumexp(theta * logz2) - math.log(inner)) / theta / self.n

    def brackets(self, params, theta, t, x1, x2, w):
        beta, j0 = params.beta, params.j0
        logw, logz2 = self._log_inner(params, theta, t, x1, x2, w)
        pk = np.exp(logw - logz2[None, :])                     # states x inner
        om = pk.T @ self.s                                     # inner x sites
        wk = _softmax(theta * logz2)
        q2 = float(wk @ (om ** 2).mean(axis=1))
        mbar = wk @ om                                          # sites
        q1 = float((mbar ** 2).mean())
        m1 = float(mbar.mean())
        return {
            "x1": 0.5 * beta ** 2 * (1.0 - (1.0 - theta) * q2 - theta * q1),
            "x2": 0.5 * beta ** 2 * (1.0 - (1.0 - theta) * q2),
            "w": beta * j0 * m1,
        }


# -- flat-level pattern model ------------------------------------------------

class _HopRsSample:
    def __init__(self, params, n, rng, p):
        self.n = n
        self.p = p
        self.s = _state_matrix(n)
        self.xi1 = rng.integers(0, 2, size=n) * 2.0 - 1.0
        self.noise = rng.standard_normal((max(p - 1, 0), n))
        self.jmu = rng.standard_normal(max(p - 1, 0))
        self.h = rng.standard_normal(n)
        self.ret = self.s @ self.xi1
        self.hs = self.s @ self.h
        self.ns = self.s @ self.noise.T                        # states x (p-1)

    def _parts(self, params, t, x, y, z, w):
        beta = params.beta
        v = 1.0 - beta * z
        if v <= 0.0:
            raise RangeViolation("hidden-layer variance 1 - beta z must stay positive")
        a = beta * (math.sqrt(t / self.n) * self.ns
                    + math.sqrt(y) * self.jmu[None, :])
        logw = (beta * (0.5 * t * self.ret ** 2 / self.n
                        + w * self.ret
                        + math.sqrt(x) * self.hs)
                + (a ** 2).sum(axis=1) / (2.0 * v)
                - 0.5 * (self.p - 1) * math.log(v))
        return a, v, logw

    def value(self, params, t, x, y, z, w):
        _, _, logw = self._parts(params, t, x, y, z, w)
        return float(logsumexp(logw)) / self.n

    def brackets(self, params, t, x, y, z, w):
        beta = params.beta
        a, v, logw = self._parts(params, t, x, y, z, w)
        p = _softmax(logw)
        n = self.n
        om_i = p @ self.s
        om_ret = float(p @ self.ret)
        om_ret2 = float(p @ self.ret ** 2)
        om_a = p @ a                                           # per hidden unit
        om_a2 = p @ (a ** 2)
        w_mat = self.s.T @ (p[:, None] * a)                    # sites x hidden
        n_hidden = self.p - 1
        p11 = n_hidden / v + float(om_a2.sum()) / v ** 2
        p12 = n_hidden / v + float((om_a2 - om_a ** 2).sum()) / v ** 2
        pq12 = float((w_mat ** 2).sum()) / v ** 2
        return {
            "t": (0.5 * beta * om_ret2 / n ** 2
                  + 0.5 * beta ** 2 * p11 / n
                  - 0.5 * beta ** 2 * pq12 / n ** 2),
            "x": 0.5 * beta ** 2 * (1.0 - float((om_i ** 2).mean())),
            "y": 0.5 * beta ** 2 * p12 / n,
            "z": 0.5 * beta * p11 / n,
            "w": beta * om_ret / n,
        }


_SK_RS_TARGETS = ("t", "x", "w")
_SK_1RSB_TARGETS = ("x1", "x2", "w")
_HOP_RS_TARGETS = ("t", "x", "y", "z", "w")


def interpolation_derivative_check(model, target, point, params, n,
                                   samples=1000, seed=0, thetas=(),
                                   inner_samples=256, step=1e-3,
                                   richardson=True, p=None):
    """Central finite difference of the interpolating pressure against
    its algebraic derivative bracket, with common random numbers.

    The difference is evaluated per disorder sample and aggregated, so
    the reported stderr reflects exactly the statistical content of the
    identity being checked.
    """
    thetas = tuple(float(v) for v in thetas)
    if model == "sk":
        if len(thetas) == 0:
            return _check_sk_rs(target, point, params, n, samples, seed,
                                step, richardson)
        if len(thetas) == 1:
            return _check_sk_1rsb(target, point, params, n, samples, seed,
                                  thetas[0], inner_samples, step, richardson)
        raise RangeViolation("pairwise checks support zero or one exponent")
    if model == "hopfield":
        if thetas:
            raise RangeViolation("pattern checks support the flat level only")
        return _check_hop_rs(target, point, params, n, samples, seed,
                             step, richardson, p)
    raise RangeViolation("model must be 'sk' or 'hopfield', got %r" % model)


def _finalize(diffs, fds, brs):
    fd = float(np.mean(fds))
    br = float(np.mean(brs))
    est = _mean_se(diffs)
    denom = max(abs(fd), abs(br), 1e-300)
    return DerivativeCheck(fd_lhs=fd, bracket_rhs=br,
                           abs_diff=abs(est.value),
                           rel_diff=abs(est.value) / denom,
                           stderr=est.stderr)


def _fd_delta(step, value):
    return step * max(1.0, abs(value))


def _check_sk_rs(target, point, params, n, samples, seed, step, richardson):
    if target not in _SK_RS_TARGETS:
        raise RangeViolation("target must be one of %r" % (_SK_RS_TARGETS,))
    t0, x0, w0 = point.t, (point.x[0] if point.x else 0.0), point.w
    for name, val in (("t", t0), ("x", x0)):
        if target == name and val - _fd_delta(step, val) < 0.0:
            raise RangeViolation(
                "cannot difference %s at %r: step leaves the domain" % (name, val))
    fds, brs, diffs = [], [], []
    for si in range(samples):
        smp = _SkRsSample(params, n, substream(seed, 10, si))

        def at(tv=t0, xv=x0, wv=w0):
            return smp.value(params, tv, xv, wv)

        if target == "t":
            fd = _richardson(lambda v: at(tv=v), t0, _fd_delta(step, t0), richardson)
        elif target == "x":
            fd = _richardson(lambda v: at(xv=v), x0, _fd_delta(step, x0), richardson)
        else:
            fd = _richardson(lambda v: at(wv=v), w0, _fd_delta(step, w0), richardson)
        br = smp.brackets(params, t0, x0, w0)[target]
        fds.append(fd)
        brs.append(br)
        diffs.append(fd - br)
    return _finalize(diffs, fds, brs)


def _check_sk_1rsb(target, point, params, n, samples, seed, theta,
                   inner, step, richardson):
    if target not in _SK_1RSB_TARGETS:
        raise RangeViolation("target must be one of %r" % (_SK_1RSB_TARGETS,))
    if len(point.x) != 2:
        raise RangeViolation("one-step checks need two field variances in x")
    t0, (x1, x2), w0 = point.t, point.x, point.w
    fds, brs, diffs = [], [], []
    for si in range(samples):
        smp = _Sk1rsbSample(params, n, substream(seed, 11, si), inner)

        def at(x1v=x1, x2v=x2, wv=w0):
            return smp.value(params, theta, t0, x1v, x2v, wv)

        if target == "x1":
            fd = _richardson(lambda v: at(x1v=v), x1, _fd_delta(step, x1), richardson)
        elif target == "x2":
            fd = _richardson(lambda v: at(x2v=v), x2, _fd_delta(step, x2), richardson)
        else:
            fd = _richardson(lambda v: at(wv=v), w0, _fd_delta(step, w0), richardson)
        br = smp.brackets(params, theta, t0, x1, x2, w0)[target]
        fds.append(fd)
        brs.append(br)
        diffs.append(fd - br)
    return _finalize(diffs, fds, brs)


def _check_hop_rs(target, point, params, n, samples, seed, step,
                  richardson, p):
    if target not in _HOP_RS_TARGETS:
        raise RangeViolation("target must be one of %r" % (_HOP_RS_TARGETS,))
    if p is None:
        p = max(1, math.ceil(params.alpha * n))
    t0 = point.t
    x0 = point.x[0] if point.x else 0.0
    y0 = point.y[0] if point.y else 0.0
    z0, w0 = point.z, point.w
    fds, brs, diffs = [], [], []
    for si in range(samples):
        smp = _HopRsSample(params, n, substream(seed, 12, si), p)

        def at(tv=t0, xv=x0, yv=y0, zv=z0, wv=w0):
            return smp.value(params, tv, xv, yv, zv, wv)

        sel = {"t": (t0, lambda v: at(tv=v)),
               "x": (x0, lambda v: at(xv=v)),
               "y": (y0, lambda v: at(yv=v)),
               "z": (z0, lambda v: at(zv=v)),
               "w": (w0, lambda v: at(wv=v))}[target]
        val0, fn = sel
        fd = _richardson(fn, val0, _fd_delta(step, val0), richardson)
        br = smp.brackets(params, t0, x0, y0, z0, w0)[target]
        fds.append(fd)
        brs.append(br)
        diffs.append(fd - br)
    return _finalize(diffs, fds, brs)
