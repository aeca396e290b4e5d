"""The oracle's vectorized loops against transcriptions of the per-step
loops they replaced, and exact goldens recorded on those loops.

Every comparison is bitwise: the Gray walks, chains, sample blocks and
the numpy logsumexp must reproduce the old outputs bit for bit."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from rsbsolve import (
    HopfieldParams,
    InterpolationPoint,
    SkParams,
    interpolation_derivative_check,
    metropolis_run,
    metropolis_state_trace,
    overlap_histogram,
)
from rsbsolve import oracle


# ---------------------------------------------------------------------------
# logsumexp: the numpy copy against scipy.special.logsumexp

def _same(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _logsumexp_inputs():
    rng = np.random.default_rng(7)
    cases = [rng.normal(size=n) * scale
             for n in (1, 2, 7, 64, 300, 65536) for scale in (1.0, 30.0)]
    cases.append(np.array([3.0, 3.0, 1.0, 3.0]))              # tied maxima
    cases.append(np.array([-np.inf, 0.5, -np.inf, 2.0]))     # -inf entries
    cases.append(np.full(5, -np.inf))                        # all -inf
    cases.append(np.array([700.0, 699.5, -700.0, 700.0]))
    cases.append(np.array([-700.0, -701.0, -750.0]))
    cases.append(np.array([np.inf, 1.0, np.inf]))    # scipy's direct fallback
    cases.append(np.array([np.nan, 1.0]))
    cases.append(np.array([-np.inf, np.inf]))
    cases.append(np.array([1.7e308, 1.7e308, -1.7e308, 1.0]))
    rows = rng.normal(size=(6, 9)) * 10.0
    rows[1, 3] = rows[1, 5] = rows[1].max() + 1.0
    rows[2] = -np.inf
    rows[3, ::2] = -np.inf
    rows[4] *= 70.0
    cases.append(rows)
    cases.append(np.round(rng.normal(size=(5, 4, 3)) * 2.0))  # many ties
    cases.append(rng.normal(size=(3, 64, 256)) * 20.0)
    # the one-step inner reduction: states x inner draws, axis 0
    cases.append(rng.normal(size=(64, 256)) * 20.0)
    return cases


def _scipy(a, axis):
    # scipy warns when the shift by the maximum overflows (+-1.7e308)
    with np.errstate(over="ignore"):
        return scipy_logsumexp(a, axis=axis)


@pytest.mark.parametrize("axis", [None, -1, 0])
def test_logsumexp_matches_scipy_bitwise(axis):
    for a in _logsumexp_inputs():
        _same(oracle.logsumexp(a, axis=axis), _scipy(a, axis))
    a = np.random.default_rng(8).normal(size=(7, 5)) * 5.0
    _same(oracle.logsumexp(a.T, axis=axis), _scipy(a.T, axis))
    _same(oracle.logsumexp(2.5, axis=axis), _scipy(2.5, axis))


# ---------------------------------------------------------------------------
# transcriptions of the per-step loops

def _loop_gray_sk(j):
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


def _loop_gray_hopfield(patterns):
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


def _loop_hop_chain(patterns, beta, n, sweeps, rng, sigma):
    o = patterns @ sigma
    colsq = (patterns ** 2).sum(axis=0)
    m_trace = np.empty(sweeps)
    e_trace = np.empty(sweeps)
    for t in range(sweeps):
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


def _loop_sk_chain(j, beta, n, sweeps, rng, sigma, record=None):
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


def _couplings(n, seed, diagonal=0.0):
    # a nonzero diagonal tells the local field before a flip from the
    # field after it
    z = np.random.default_rng(seed).normal(size=(n, n))
    j = (z + z.T) / math.sqrt(2.0 * n) + 0.1 / n
    np.fill_diagonal(j, diagonal)
    return j


def test_gray_walk_sk_matches_loop():
    # n=14 runs four chunks of 4096 steps
    j = _couplings(14, 0, diagonal=0.3)
    assert np.array_equal(oracle._gray_energies_sk(j), _loop_gray_sk(j.copy()))


@pytest.mark.parametrize("p", [1, 3, 7])
def test_gray_walk_hopfield_matches_loop(p):
    patterns = np.random.default_rng(p).normal(size=(p, 14))
    patterns[0] = np.sign(patterns[0])
    assert np.array_equal(oracle._gray_energies_hopfield(patterns),
                          _loop_gray_hopfield(patterns.copy()))


@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_gray_walk_chunk_size_is_invisible(monkeypatch, chunk):
    j = _couplings(7, 1, diagonal=-0.2)
    patterns = np.random.default_rng(2).normal(size=(4, 7))
    monkeypatch.setattr(oracle, "_GRAY_CHUNK", chunk)
    assert np.array_equal(oracle._gray_energies_sk(j), _loop_gray_sk(j.copy()))
    assert np.array_equal(oracle._gray_energies_hopfield(patterns),
                          _loop_gray_hopfield(patterns.copy()))


@pytest.mark.parametrize("beta", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("record", [False, True], ids=["plain", "record"])
def test_sk_chain_matches_loop(beta, record):
    n, sweeps = 40, 30
    j = _couplings(n, 3, diagonal=0.1)
    start = np.random.default_rng(4).integers(0, 2, size=n) * 2.0 - 1.0
    spins = {}
    traces = {}
    records = {}
    for name, chain in (("new", oracle._sk_chain), ("loop", _loop_sk_chain)):
        spins[name] = start.copy()
        records[name] = np.empty((6, n)) if record else None
        traces[name] = chain(j, beta, n, sweeps, np.random.default_rng(5),
                             spins[name], record=records[name])
    for a, b in zip(traces["new"], traces["loop"]):
        assert np.array_equal(a, b)
    assert np.array_equal(spins["new"], spins["loop"])
    if record:
        assert np.array_equal(records["new"], records["loop"])


@pytest.mark.parametrize("beta", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("p", [1, 3, 7])
def test_hop_chain_matches_loop(beta, p):
    # p >= 4 exercises the BLAS dot order of the strided columns
    n, sweeps = 40, 30
    patterns = np.random.default_rng(p).normal(size=(p, n))
    patterns[0] = np.sign(patterns[0])
    spins = {}
    traces = {}
    for name, chain in (("new", oracle._hop_chain), ("loop", _loop_hop_chain)):
        spins[name] = patterns[0].copy()
        traces[name] = chain(patterns, beta, n, sweeps,
                             np.random.default_rng(6), spins[name])
    for a, b in zip(traces["new"], traces["loop"]):
        assert np.array_equal(a, b)
    assert np.array_equal(spins["new"], spins["loop"])


# ---------------------------------------------------------------------------
# exact goldens recorded on the per-step loops and per-sample checks

def test_metropolis_goldens():
    got = [
        metropolis_run(HopfieldParams(beta=2.0, alpha=0.05), 40, 30, seed=0),
        metropolis_run(HopfieldParams(beta=0.8, alpha=0.1), 30, 20, seed=1,
                       p=4, boolean_patterns=True, burn_in=4),
        metropolis_run(SkParams(beta=0.5), 30, 30, seed=0),
        metropolis_run(SkParams(beta=1.5, j0=0.4, j=1.0), 25, 24, seed=2),
    ]
    assert [repr(r) for r in got] == [
        "MetropolisResult(overlap=Estimate(value=0.953333333333333, stderr=0.007663560447348133), energy=Estimate(value=-0.4659487334680252, stderr=0.0066701485428619966))",
        "MetropolisResult(overlap=Estimate(value=0.06666666666666667, stderr=0.08004628290812389), energy=Estimate(value=-0.16833333333333333, stderr=0.02411179381180598))",
        "MetropolisResult(overlap=Estimate(value=0.048888888888888885, stderr=0.04087232238585671), energy=Estimate(value=-0.1617509200409176, stderr=0.024887071086145632))",
        "MetropolisResult(overlap=Estimate(value=0.3266666666666666, stderr=0.03333333333333334), energy=Estimate(value=-0.5693643160472088, stderr=0.0234056335487942))",
    ]


def test_overlap_histogram_golden():
    h = overlap_histogram(SkParams(beta=1.0, j0=0.0, j=1.0), 24, 40, seed=0,
                          disorder_samples=2, bins=11)
    assert repr((h.mean, h.std, h.n_samples, h.counts.tolist())) == \
        "(0.1, 0.25358540091171566, 40, [0, 0, 0, 3, 6, 14, 8, 6, 2, 1, 0])"


def test_state_trace_golden():
    trace = metropolis_state_trace(SkParams(beta=0.7, j0=0.2, j=1.0), 6, 40,
                                   seed=0)
    assert trace.tolist() == [
        22, 20, 53, 62, 15, 14, 3, 18, 32, 48, 41, 15, 7, 15, 60, 60, 40, 24,
        32, 52, 62, 34, 48, 56, 41, 24, 14, 22, 20, 56, 48, 5, 54, 7, 47, 38,
        43, 3, 17, 3]


_SK = SkParams(beta=1.0, j0=0.8, j=1.0)
_HOP_POINT = InterpolationPoint(t=0.4, x=(0.3,), y=(0.5,), z=0.2, w=0.1)
# checks spanning several sample blocks (SK n=6: 85 per block; Hopfield
# n=7: 32 per block), a one-hidden-unit model and a one-step check
_BLOCK_GOLDENS = [
    (("sk", "t", InterpolationPoint(t=0.5, x=(0.4,), w=0.3), _SK),
     dict(n=6, samples=150, seed=4),
     "DerivativeCheck(fd_lhs=0.2805186921526442, bracket_rhs=0.2800889904915122, abs_diff=0.000429701661131956, rel_diff=0.001531811152527882, stderr=0.0102834168356598)"),
    (("hopfield", "y", InterpolationPoint(t=0.5, x=(0.5,), y=(0.6,), z=0.3, w=0.3),
      HopfieldParams(beta=0.6, alpha=0.5)),
     dict(n=6, samples=150, seed=4, p=3),
     "DerivativeCheck(fd_lhs=0.08452427142112215, bracket_rhs=0.08757743997459227, abs_diff=0.0030531685534701193, rel_diff=0.03486250059782401, stderr=0.006270843082253439)"),
    (("hopfield", "t", _HOP_POINT, HopfieldParams(beta=0.7, alpha=1.0)),
     dict(n=7, samples=40, seed=6),
     "DerivativeCheck(fd_lhs=0.43476777344794115, bracket_rhs=0.43049995033407085, abs_diff=0.004267823113870179, rel_diff=0.009816328105517245, stderr=0.0223503883511387)"),
    (("hopfield", "z", _HOP_POINT, HopfieldParams(beta=0.7, alpha=0.1)),
     dict(n=5, samples=20, seed=6, p=2),
     "DerivativeCheck(fd_lhs=0.13452840196607568, bracket_rhs=0.1345284019661181, abs_diff=4.244590789959091e-14, rel_diff=3.1551633171321847e-13, stderr=3.3295456775619406e-14)"),
    (("sk", "x2", InterpolationPoint(t=0.5, x=(0.4, 0.25), w=0.3),
      SkParams(beta=1.2, j0=0.7, j=1.0)),
     dict(n=5, samples=6, seed=4, thetas=(0.5,), inner_samples=16),
     "DerivativeCheck(fd_lhs=0.5690949261120125, bracket_rhs=0.5353449316422617, abs_diff=0.033749994469750806, rel_diff=0.05930468349160425, stderr=0.05337081639405843)"),
]


@pytest.mark.parametrize("args,kw,expected", _BLOCK_GOLDENS,
                         ids=["sk-t", "hopfield-y", "hopfield-t-p7",
                              "hopfield-z-p2", "1rsb-x2"])
def test_interpolation_block_golden(args, kw, expected):
    assert repr(interpolation_derivative_check(*args, **kw)) == expected


@pytest.mark.parametrize("args,kw", [
    (("sk", "t", InterpolationPoint(t=0.5, x=(0.4,), w=0.3), _SK),
     dict(n=5, samples=21)),
    (("hopfield", "t", _HOP_POINT, HopfieldParams(beta=0.7, alpha=1.0)),
     dict(n=5, samples=21)),
    (("sk", "x1", InterpolationPoint(t=0.5, x=(0.4, 0.25), w=0.3), _SK),
     dict(n=4, samples=7, thetas=(0.5,), inner_samples=32)),
], ids=["sk", "hopfield", "1rsb"])
def test_block_size_is_invisible(monkeypatch, args, kw):
    # a sample's values must not depend on the samples sharing its block:
    # blocks of one sample, of a few and of all of them agree bit for bit
    want = repr(interpolation_derivative_check(*args, **kw))
    for floats in (1, 3 * 2 ** 5 * 32, 2 ** 30):
        monkeypatch.setattr(oracle, "_BLOCK_FLOATS", floats)
        assert repr(interpolation_derivative_check(*args, **kw)) == want


# ---------------------------------------------------------------------------
# the pattern chain's blocked cost reads

def _spy_costs(monkeypatch):
    """Patch the chain so that every cost it reads is recorded with the
    moves passed and the per-proposal dot cost at that moment."""
    seen = []
    real_chain = oracle._chain

    def chain(x, mat, flip_costs, *args, **kw):
        plain = np.asarray(mat)
        colsq = (plain ** 2).sum(axis=0)
        n = plain.shape[1]

        def spied(sites):
            cost = flip_costs(sites)

            def read(i, b, sb, moves):
                dh = cost(i, b, sb, moves)
                want = (2.0 / n) * (sb * float(plain[:, b] @ x) - colsq[b])
                seen.append((moves, dh, float(want)))
                return dh
            return read
        return real_chain(x, mat, spied, *args, **kw)

    monkeypatch.setattr(oracle, "_chain", chain)
    return seen


def _patterns(p, n):
    patterns = np.random.default_rng(11).normal(size=(p, n))
    patterns[0] = np.sign(patterns[0])
    return patterns


@pytest.mark.parametrize("block", [1, 5, 32, 64])
@pytest.mark.parametrize("beta", [0.0, 2.0, 40.0])
def test_hop_chain_block_size_is_invisible(monkeypatch, block, beta):
    # at n=40 blocks of 5 and 64 straddle the end of a sweep (64 > n); at
    # beta=0 every proposal is accepted, so a block goes stale on every
    # step, and at beta=40 whole sweeps are rejected; p=7 makes the
    # order of the dot product's sum matter
    n, sweeps = 40, 25
    patterns = _patterns(7, n)
    monkeypatch.setattr(oracle, "_HOP_BLOCK", block)
    seen = _spy_costs(monkeypatch)
    spins = {}
    traces = {}
    for name, chain in (("new", oracle._hop_chain), ("loop", _loop_hop_chain)):
        spins[name] = patterns[0].copy()
        traces[name] = chain(patterns, beta, n, sweeps,
                             np.random.default_rng(12), spins[name])
    for a, b in zip(traces["new"], traces["loop"]):
        assert np.array_equal(a, b)
    assert np.array_equal(spins["new"], spins["loop"])
    # the acceptance test rarely tells a last-bit change of a cost, so
    # every cost read must also equal the dot patterns[:, b] @ o
    assert len(seen) == n * sweeps
    assert [dh for _, dh, _ in seen] == [want for _, _, want in seen]


def test_hop_chain_rejects_whole_sweeps():
    # the premise of the beta=40 cases above: some sweep accepts no flip
    patterns = _patterns(7, 40)
    m, _ = _loop_hop_chain(patterns, 40.0, 40, 25, np.random.default_rng(12),
                           patterns[0].copy())
    assert np.any(m[1:] == m[:-1])


class _CountedPatterns(np.ndarray):
    """Patterns that count the ufuncs called on them (``@`` included);
    arrays made from them share the count."""

    def __array_finalize__(self, obj):
        self.calls = getattr(obj, "calls", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        self.calls[ufunc.__name__] = self.calls.get(ufunc.__name__, 0) + 1
        inputs = [np.asarray(a) for a in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_hop_chain_reads_costs_in_blocks(monkeypatch):
    # at beta=2, alpha=0.01 a few percent of proposals are accepted;
    # a cost is read again only after an accepted flip, at the end of a
    # block and at the start of a sweep, and never by one dot per proposal
    n, sweeps = 600, 10
    sample = oracle.hopfield_disorder_sample(
        HopfieldParams(beta=2.0, alpha=0.01), n, oracle.substream(0, 2, 0))
    patterns = sample.patterns.view(_CountedPatterns)
    patterns.calls = {}
    vecdots = []
    real_vecdot = np.vecdot
    monkeypatch.setattr(np, "vecdot", lambda a, b: vecdots.append(len(a))
                        or real_vecdot(a, b))
    seen = _spy_costs(monkeypatch)
    sigma = sample.patterns[0].copy()
    oracle._hop_chain(patterns, 2.0, n, sweeps, np.random.default_rng(1),
                      sigma)
    moves = [m for m, _, _ in seen]
    proposals = n * sweeps
    assert len(moves) == proposals
    # moves[-1] accepted flips precede the last proposal
    assert 0 < moves[-1] < proposals // 10
    assert len(vecdots) <= moves[-1] + math.ceil(proposals / 32) + sweeps
    assert sum(vecdots) >= proposals
    # one matmul builds the overlaps; a per-proposal dot would add 6000
    assert patterns.calls.get("matmul", 0) <= 1
