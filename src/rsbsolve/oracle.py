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
    _check_params(SkParams, params)
    z = rng.standard_normal((n, n))
    zu = np.triu(z, 1)
    zs = zu + zu.T
    j = params.j0 / n + params.j * zs / math.sqrt(n)
    np.fill_diagonal(j, 0.0)
    return SkDisorderSample(n=n, matrix=j)


def hopfield_disorder_sample(params, n, rng, p=None, boolean_patterns=False):
    _check_params(HopfieldParams, params)
    if p is None:
        p = max(1, math.ceil(params.alpha * n))
    _at_least_one(p=p)
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


def logsumexp(a, axis=None):
    """log(sum(exp(a))) along ``axis`` for real, non-empty ``a``, bit for
    bit as scipy.special.logsumexp (scipy 1.17) computes it, without its
    array-API dispatch.

    The maximal elements are left out of the shifted sum s, and the
    result is log1p(s/m) + log m + max, m being their count.  Zeroing
    their exps, rather than masking them to -inf before the shift, gives
    an all -inf slice -inf, a +inf entry +inf and a NaN entry NaN
    directly, where scipy falls back to log(sum(exp(a)))."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    axis = tuple(range(a.ndim)) if axis is None else axis
    a_max = np.max(a, axis=axis, keepdims=True)
    is_max = a == a_max
    m = np.count_nonzero(is_max, axis=axis, keepdims=True).astype(float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.exp(a - a_max)
        np.copyto(e, 0.0, where=is_max)
        s = np.sum(e, axis=axis, keepdims=True)
        out = np.log1p(s / m) + np.log(m) + a_max
    out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def _at_least_one(**counts):
    for name, count in counts.items():
        if count < 1:
            raise RangeViolation("%s must be at least 1, got %r"
                                 % (name, count))


def _check_params(cls, params):
    if not isinstance(params, cls):
        raise TypeError("params must be %s" % cls.__name__)


def _mean_se(values):
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    if values.size < 2:
        return Estimate(value=mean, stderr=0.0)
    return Estimate(value=mean,
                    stderr=float(values.std(ddof=1) / math.sqrt(values.size)))


# ---------------------------------------------------------------------------
# exact enumeration (Gray-code walk, incremental energies)

_GRAY_CHUNK = 4096


def _gray_steps(n):
    """Gray walk from the all -1 state over every state of n spins, in
    chunks of at most ``_GRAY_CHUNK`` steps: per chunk, the slice of its
    steps, the site each step flips and 2 sigma_b, twice its spin before
    the flip.  Step i flips site b = ctz(i), which has flipped
    i >> (b + 1) times before."""
    for lo in range(1, 2 ** n, _GRAY_CHUNK):
        i = np.arange(lo, min(lo + _GRAY_CHUNK, 2 ** n))
        b = np.bitwise_count((i & -i) - 1)
        yield slice(lo, lo + len(i)), b, 4.0 * ((i >> (b + 1)) & 1) - 2.0


def _walk(start, rows, twice_spin):
    """States after each step of a chunk: the sequential sums
    start - (2 sigma_b) rows[b] of the incremental loop, by a cumulative
    sum down the chunk (x - y is x + (-y) bit for bit).  Row 0 is
    ``start``."""
    acc = np.empty((len(rows) + 1, len(start)))
    acc[0] = start
    np.multiply(-twice_spin[:, None], rows, out=acc[1:])
    return np.cumsum(acc, axis=0, out=acc)


def _gray_energies_sk(j):
    n = j.shape[0]
    sigma = -np.ones(n)
    phi = j @ sigma
    e = -0.5 * float(sigma @ phi)
    out = np.empty(2 ** n)
    out[0] = e
    cols = np.ascontiguousarray(j.T)
    for steps, b, ts in _gray_steps(n):
        acc = _walk(phi, cols[b], ts)
        # energy step (2 sigma_b) phi_b, with phi before the flip
        de = np.empty(len(b) + 1)
        de[0] = e
        np.multiply(ts, acc[np.arange(len(b)), b], out=de[1:])
        np.cumsum(de, out=de)
        out[steps] = de[1:]
        phi, e = acc[-1].copy(), de[-1]
    return out


def _gray_energies_hopfield(patterns):
    p, n = patterns.shape
    sigma = -np.ones(n)
    o = patterns @ sigma
    out = np.empty(2 ** n)
    out[0] = -float(o @ o) / (2.0 * n)
    cols = np.ascontiguousarray(patterns.T)
    for steps, b, ts in _gray_steps(n):
        acc = _walk(o, cols[b], ts)[1:]
        out[steps] = -np.vecdot(acc, acc) / (2.0 * n)
        o = acc[-1].copy()
    return out


def _quenched(beta, n, samples, energies):
    """Quenched pressure: the mean over samples s of log Z / n, with Z
    summed over ``energies(s)``, the energy of every state of sample s."""
    _at_least_one(samples=samples)
    return _mean_se([float(logsumexp(-beta * energies(s))) / n
                     for s in range(samples)])


def enumerate_sk_pressure(params, n, samples=1, seed=0):
    """Quenched finite-size pressure by exact enumeration (n <= 20)."""
    if not 1 <= n <= 20:
        raise RangeViolation("n must lie in [1, 20] for enumeration")
    return _quenched(params.beta, n, samples, lambda s: _gray_energies_sk(
        sk_disorder_sample(params, n, substream(seed, 0, s)).matrix))


def enumerate_hopfield_pressure(params, n, samples=1, seed=0, p=None,
                                boolean_patterns=False):
    """Quenched finite-size pressure by exact enumeration (n <= 18).

    The energy couples every pattern to every ordered site pair,
    self-pairs included, so a single one-site pattern gives exactly
    log 2 + beta/2.
    """
    if not 1 <= n <= 18:
        raise RangeViolation("n must lie in [1, 18] for enumeration")
    return _quenched(params.beta, n, samples, lambda s: _gray_energies_hopfield(
        hopfield_disorder_sample(params, n, substream(seed, 1, s), p=p,
                                 boolean_patterns=boolean_patterns).patterns))


# ---------------------------------------------------------------------------
# Metropolis sampling

def _chain(x, mat, flip_cost, observe, beta, n, sweeps, rng, sigma,
           energy=0.0, record=None):
    """Random-site Metropolis chain flipping ``sigma`` in place; returns
    the per-sweep magnetization and energy per site.  A model supplies
    its state vector ``x``, which a flip of site b moves in place by
    -(2 sigma_b) mat[:, b]; ``flip_cost(b, sigma_b)``; and
    ``observe(x, total, energy)``, the sweep's two observables from the
    state, the exact spin sum and ``energy`` plus every accepted cost.
    ``record``, an (r, n) array, receives the spins after each of the
    last r sweeps.  The update is x - 2c_b or x + 2c_b with the doubled
    column 2c_b precomputed: the same subtraction bit for bit."""
    twice = list(2.0 * np.ascontiguousarray(mat.T))
    spins = sigma.tolist()
    total = sum(spins)          # integer-valued, so every sum is exact
    m_trace = np.empty(sweeps)
    e_trace = np.empty(sweeps)
    for t in range(sweeps):
        # random site choices keep the chain mixing even when every
        # proposal is accepted (deterministic sweeps lock up at beta=0)
        sites = rng.integers(0, n, size=n).tolist()
        u = rng.random(n).tolist()
        for b, uk in zip(sites, u):
            sb = spins[b]
            dh = flip_cost(b, sb)
            if dh <= 0.0 or uk < math.exp(-beta * dh):
                energy += dh
                if sb > 0.0:
                    x -= twice[b]
                else:
                    x += twice[b]
                spins[b] = -sb
                total -= 2.0 * sb
        m_trace[t], e_trace[t] = observe(x, total, energy)
        if record is not None and t >= sweeps - len(record):
            record[t - sweeps + len(record)] = spins
    sigma[:] = spins
    return m_trace, e_trace


def _hop_chain(patterns, beta, n, sweeps, rng, sigma):
    """``_chain`` on the pattern overlaps o = xi sigma."""
    o = patterns @ sigma
    colsq = (patterns ** 2).sum(axis=0).tolist()
    # the strided columns keep the overlap dot product's BLAS order
    cols = list(patterns.T)
    return _chain(
        o, patterns,
        lambda b, sb: (2.0 / n) * (sb * float(cols[b] @ o) - colsq[b]),
        lambda o, total, energy: (o[0] / n, -float(o @ o) / (2.0 * n * n)),
        beta, n, sweeps, rng, sigma)


def _sk_chain(j, beta, n, sweeps, rng, sigma, record=None):
    """``_chain`` on the local fields phi = J sigma of couplings ``j``."""
    phi = j @ sigma
    return _chain(phi, j, lambda b, sb: 2.0 * sb * phi[b],
                  lambda phi, total, energy: (total / n, energy / n),
                  beta, n, sweeps, rng, sigma,
                  energy=-0.5 * float(sigma @ phi), record=record)


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


def _seeded_sk_chain(params, n, sweeps, seed, couplings=None, record=None):
    """``_sk_chain`` from a random start on the couplings of substream
    (seed, 3, 0) unless ``couplings`` are given; the start and the chain
    draw from substreams (seed, 3, 1) and (seed, 3, 2)."""
    if couplings is None:
        couplings = sk_disorder_sample(params, n, substream(seed, 3, 0)).matrix
    sigma = substream(seed, 3, 1).integers(0, 2, size=n) * 2.0 - 1.0
    return _sk_chain(couplings, params.beta, n, sweeps, substream(seed, 3, 2),
                     sigma, record=record)


def metropolis_run(params, n, sweeps, seed=0, p=None, boolean_patterns=False,
                   burn_in=None):
    """Random-site single-flip Metropolis estimate of overlap and energy.

    For pattern models the chain starts aligned with the retrieved
    pattern and reports the overlap with it; for pairwise-coupling models
    it starts at random and reports the plain magnetization.  Errors are
    batch-mean standard errors over the measurement window.
    """
    _at_least_one(n=n)
    burn = sweeps // 2 if burn_in is None else burn_in
    if not 0 <= burn < sweeps:
        raise RangeViolation("burn_in must lie in [0, sweeps) to leave "
                             "measurement sweeps")
    if isinstance(params, HopfieldParams):
        sample = hopfield_disorder_sample(params, n, substream(seed, 2, 0),
                                          p=p, boolean_patterns=boolean_patterns)
        sigma = sample.patterns[0].copy()
        m_tr, e_tr = _hop_chain(sample.patterns, params.beta, n, sweeps,
                                substream(seed, 2, 1), sigma)
    elif isinstance(params, SkParams):
        m_tr, e_tr = _seeded_sk_chain(params, n, sweeps, seed)
    else:
        raise TypeError("params must be SkParams or HopfieldParams")
    return MetropolisResult(overlap=_batch_estimate(m_tr[burn:]),
                            energy=_batch_estimate(e_tr[burn:]))


def metropolis_state_trace(params, n, sweeps, seed=0, couplings=None):
    """Per-sweep configuration indices of a pairwise-coupling chain
    (small n only); used for occupancy checks against the exact
    Boltzmann weights."""
    if not 1 <= n <= 16:
        raise RangeViolation("state traces need n in [1, 16]")
    _check_params(SkParams, params)
    _at_least_one(sweeps=sweeps)
    spins = np.empty((sweeps, n))
    _seeded_sk_chain(params, n, sweeps, seed, couplings, record=spins)
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
    _at_least_one(n=n, sweeps=sweeps, disorder_samples=disorder_samples,
                  bins=bins)
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
    variances ``y``, hidden self-coupling ``z``, bias field ``w``."""

    t: float = 0.0
    x: tuple = ()
    y: tuple = ()
    z: float = 0.0
    w: float = 0.0


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


def _softmax(logw):
    mx = logw.max(axis=-1, keepdims=True)
    w = np.exp(logw - mx)
    return w / w.sum(axis=-1, keepdims=True)


def _vecmat(v, m):
    """Per sample, vector v times matrix m as the (1, k) @ (k, j) product
    numpy makes of a 1-D v @ m: the same BLAS call per sample."""
    return (v[..., None, :] @ m)[..., 0, :]


# Floats in the largest array of a block of samples, (samples, 2^n,
# width): 256 kB.  The one-step class at n=6 with 256 inner draws (2^14
# floats a sample) ran slower in blocks of three or more samples.
_BLOCK_FLOATS = 2 ** 15


# A sample class holds a block of disorder samples of one interpolating
# pressure, each drawn from its own generator in ``rngs`` exactly as a
# lone sample would be.  ``value`` and ``brackets`` return one entry per
# sample (axis 0), and every per-sample reduction keeps its order: a
# row-wise sum is the sum of that row, and _vecmat / np.vecdot make the
# same BLAS call per sample as a 1-D product.  The class declares its
# substream ``key``, its ``targets``, the ``roots`` among them under a
# square root, ``coords`` of a point (the keywords of ``value`` and
# ``brackets``) and the ``width`` of its largest per-sample array in
# floats per state.

class _SkRsSample:
    """Flat-level pairwise model."""

    key = 10
    targets = ("t", "x", "w")
    roots = ("t", "x")

    @staticmethod
    def coords(point):
        if len(point.x) > 1:
            raise RangeViolation(
                "flat checks take at most one field variance in x")
        return {"t": point.t, "x": point.x[0] if point.x else 0.0,
                "w": point.w}

    @staticmethod
    def width(n):
        return n

    def __init__(self, params, n, rngs):
        self.params = params
        self.n = n
        self.s = _state_matrix(n)
        scale = params.j * math.sqrt(2.0) / (2.0 * math.sqrt(n))
        b2, hs = [], []
        for rng in rngs:
            z = rng.standard_normal((n, n))
            b2.append(scale * np.einsum("si,ij,sj->s", self.s, z, self.s))
            hs.append(self.s @ rng.standard_normal(n))
        self.b2 = np.stack(b2)                         # samples x states
        self.hs = np.stack(hs)
        self.msum = self.s.sum(axis=1)

    def logw(self, t, x, w):
        beta, j0 = self.params.beta, self.params.j0
        return beta * (math.sqrt(t) * self.b2
                       + math.sqrt(x) * self.hs
                       + t * 0.5 * j0 * self.msum ** 2 / self.n
                       + w * j0 * self.msum)

    def value(self, t, x, w):
        return logsumexp(self.logw(t, x, w), axis=-1) / self.n

    def brackets(self, t, x, w):
        beta, j0, j = self.params.beta, self.params.j0, self.params.j
        p = _softmax(self.logw(t, x, w))
        om_i = _vecmat(p, self.s)                      # samples x sites
        om_ij = self.s.T @ (p[:, :, None] * self.s)    # samples x sites^2
        q2 = (om_ij ** 2).mean(axis=(1, 2))
        m2 = om_ij.mean(axis=(1, 2))
        q1 = (om_i ** 2).mean(axis=1)
        m1 = om_i.mean(axis=1)
        return {
            "t": 0.25 * beta ** 2 * j ** 2 * (1.0 - q2) + 0.5 * beta * j0 * m2,
            "x": 0.5 * beta ** 2 * (1.0 - q1),
            "w": beta * j0 * m1,
        }


class _Sk1rsbSample(_SkRsSample):
    """One-step hierarchical pairwise model: the flat sample's couplings
    and outer field, drawn first, plus ``inner`` draws of the inner
    field reweighted with exponent ``theta``."""

    key = 11
    targets = ("x1", "x2", "w")
    roots = ("x1", "x2")

    @staticmethod
    def coords(point):
        if len(point.x) != 2:
            raise RangeViolation("one-step checks need two field variances in x")
        return {"t": point.t, "x1": point.x[0], "x2": point.x[1], "w": point.w}

    @staticmethod
    def width(n, theta, inner):
        return max(n, inner)

    def __init__(self, params, n, rngs, theta, inner):
        super().__init__(params, n, rngs)
        self.theta = theta
        self.h2s = np.stack([self.s @ rng.standard_normal((n, inner))
                             for rng in rngs])     # samples x states x inner

    def _log_inner(self, t, x1, x2, w):
        logw = (self.logw(t, x1, w)[:, :, None]
                + self.params.beta * math.sqrt(x2) * self.h2s)
        return logw, logsumexp(logw, axis=1)                  # per inner draw

    def value(self, t, x1, x2, w):
        _, logz2 = self._log_inner(t, x1, x2, w)
        inner, theta = logz2.shape[1], self.theta
        return ((logsumexp(theta * logz2, axis=-1) - math.log(inner))
                / theta / self.n)

    def brackets(self, t, x1, x2, w):
        beta, j0, theta = self.params.beta, self.params.j0, self.theta
        logw, logz2 = self._log_inner(t, x1, x2, w)
        pk = np.exp(logw - logz2[:, None, :])     # samples x states x inner
        om = pk.mT @ self.s                       # samples x inner x sites
        wk = _softmax(theta * logz2)
        q2 = np.vecdot(wk, (om ** 2).mean(axis=2))
        mbar = _vecmat(wk, om)                    # samples x sites
        q1 = (mbar ** 2).mean(axis=1)
        m1 = mbar.mean(axis=1)
        return {
            "x1": 0.5 * beta ** 2 * (1.0 - (1.0 - theta) * q2 - theta * q1),
            "x2": 0.5 * beta ** 2 * (1.0 - (1.0 - theta) * q2),
            "w": beta * j0 * m1,
        }


class _HopRsSample:
    """Flat-level pattern model: the patterns of
    ``hopfield_disorder_sample``, then the hidden-layer and site fields."""

    key = 12
    targets = ("t", "x", "y", "z", "w")
    roots = ("t", "x", "y")

    @staticmethod
    def width(n, p):
        return n

    @staticmethod
    def coords(point):
        if len(point.x) > 1 or len(point.y) > 1:
            raise RangeViolation(
                "flat checks take at most one field variance in x and in y")
        return {"t": point.t, "x": point.x[0] if point.x else 0.0,
                "y": point.y[0] if point.y else 0.0, "z": point.z,
                "w": point.w}

    def __init__(self, params, n, rngs, p):
        self.params = params
        self.n = n
        self.s = _state_matrix(n)
        jmu, ret, hs, ns = [], [], [], []
        for rng in rngs:
            pats = hopfield_disorder_sample(params, n, rng, p=p).patterns
            jmu.append(rng.standard_normal(len(pats) - 1))
            ret.append(self.s @ pats[0])
            hs.append(self.s @ rng.standard_normal(n))
            ns.append(self.s @ pats[1:].T)
        self.p = len(pats)
        self.jmu = np.stack(jmu)               # samples x (p-1)
        self.ret = np.stack(ret)               # samples x states
        self.hs = np.stack(hs)
        self.ns = np.stack(ns)                 # samples x states x (p-1)

    def _parts(self, t, x, y, z, w):
        beta = self.params.beta
        v = 1.0 - beta * z
        if v <= 0.0:
            raise RangeViolation("hidden-layer variance 1 - beta z must stay positive")
        a = beta * (math.sqrt(t / self.n) * self.ns
                    + math.sqrt(y) * self.jmu[:, None, :])
        logw = (beta * (0.5 * t * self.ret ** 2 / self.n
                        + w * self.ret
                        + math.sqrt(x) * self.hs)
                + (a ** 2).sum(axis=2) / (2.0 * v)
                - 0.5 * (self.p - 1) * math.log(v))
        return a, v, logw

    def value(self, t, x, y, z, w):
        _, _, logw = self._parts(t, x, y, z, w)
        return logsumexp(logw, axis=-1) / self.n

    def brackets(self, t, x, y, z, w):
        beta = self.params.beta
        a, v, logw = self._parts(t, x, y, z, w)
        p = _softmax(logw)
        n = self.n
        om_i = _vecmat(p, self.s)
        om_ret = np.vecdot(p, self.ret)
        om_ret2 = np.vecdot(p, self.ret ** 2)
        om_a = _vecmat(p, a)                   # per hidden unit
        om_a2 = _vecmat(p, a ** 2)
        w_mat = self.s.T @ (p[:, :, None] * a)  # samples x sites x hidden
        n_hidden = self.p - 1
        p11 = n_hidden / v + om_a2.sum(axis=1) / v ** 2
        p12 = n_hidden / v + (om_a2 - om_a ** 2).sum(axis=1) / v ** 2
        pq12 = (w_mat ** 2).sum(axis=(1, 2)) / v ** 2
        return {
            "t": (0.5 * beta * om_ret2 / n ** 2
                  + 0.5 * beta ** 2 * p11 / n
                  - 0.5 * beta ** 2 * pq12 / n ** 2),
            "x": 0.5 * beta ** 2 * (1.0 - (om_i ** 2).mean(axis=1)),
            "y": 0.5 * beta ** 2 * p12 / n,
            "z": 0.5 * beta * p11 / n,
            "w": beta * om_ret / n,
        }


def interpolation_derivative_check(model, target, point, params, n,
                                   samples=1000, seed=0, thetas=(),
                                   inner_samples=256, step=1e-3, p=None):
    """Richardson central difference of the interpolating pressure
    against its algebraic derivative bracket, with common random numbers.

    The difference is evaluated per disorder sample and aggregated, so
    the reported stderr reflects exactly the statistical content of the
    identity being checked.  A target under a square root whose
    difference stencil would leave the domain raises RangeViolation, and
    so do an exponent outside (0, 1], a step that is not positive and
    finite, fewer than one inner draw and a pairwise check given a
    hidden-layer coordinate y or z.
    """
    _at_least_one(n=n, samples=samples, inner_samples=inner_samples)
    if not 0.0 < step < math.inf:
        raise RangeViolation("step must be positive and finite, got %r" % step)
    thetas = tuple(float(v) for v in thetas)
    if model == "sk":
        _check_params(SkParams, params)
        if point.y or point.z:
            raise RangeViolation("pairwise checks take no hidden-layer y or z")
        if len(thetas) > 1:
            raise RangeViolation("pairwise checks support zero or one exponent")
        if thetas and not 0.0 < thetas[0] <= 1.0:
            raise RangeViolation("exponent must lie in (0, 1], got %r"
                                 % thetas[0])
        cls = _Sk1rsbSample if thetas else _SkRsSample
        extra = (thetas[0], inner_samples) if thetas else ()
    elif model == "hopfield":
        _check_params(HopfieldParams, params)
        if thetas:
            raise RangeViolation("pattern checks support the flat level only")
        cls, extra = _HopRsSample, (p,)
    else:
        raise RangeViolation("model must be 'sk' or 'hopfield', got %r" % model)
    if target not in cls.targets:
        raise RangeViolation("target must be one of %r" % (cls.targets,))
    at = cls.coords(point)
    v0 = at[target]
    delta = step * max(1.0, abs(v0))
    if target in cls.roots and v0 - delta < 0.0:
        raise RangeViolation(
            "cannot difference %s at %r: step leaves the domain" % (target, v0))
    size = max(1, _BLOCK_FLOATS // (2 ** n * cls.width(n, *extra)))
    fds, brs = [], []
    for lo in range(0, samples, size):
        rngs = [substream(seed, cls.key, si)
                for si in range(lo, min(lo + size, samples))]
        smp = cls(params, n, rngs, *extra)
        f = lambda v: smp.value(**{**at, target: v})
        fd = (f(v0 + delta) - f(v0 - delta)) / (2.0 * delta)
        d2 = (f(v0 + 0.5 * delta) - f(v0 - 0.5 * delta)) / delta
        fds.append((4.0 * d2 - fd) / 3.0)
        brs.append(smp.brackets(**at)[target])
    fds, brs = np.concatenate(fds), np.concatenate(brs)
    fd = float(np.mean(fds))
    br = float(np.mean(brs))
    est = _mean_se(fds - brs)
    denom = max(abs(fd), abs(br), 1e-300)
    return DerivativeCheck(fd_lhs=fd, bracket_rhs=br,
                           abs_diff=abs(est.value),
                           rel_diff=abs(est.value) / denom,
                           stderr=est.stderr)
