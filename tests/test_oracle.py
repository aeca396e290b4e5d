"""Finite-size oracles: enumeration exactness, chain correctness,
derivative identities."""

import math
import re

import numpy as np
import pytest

from rsbsolve import (
    HopfieldParams,
    InterpolationPoint,
    RangeViolation,
    ShapeMismatch,
    SkParams,
    enumerate_hopfield_pressure,
    enumerate_sk_pressure,
    hopfield_disorder_sample,
    interpolation_derivative_check,
    metropolis_run,
    metropolis_state_trace,
    overlap_histogram,
    sk_disorder_sample,
    substream,
)


def spins(n):
    idx = np.arange(2 ** n)
    return ((idx[:, None] >> np.arange(n)) & 1) * 2.0 - 1.0


def direct_sk_pressure(j, beta):
    s = spins(j.shape[0])
    e = -0.5 * np.einsum("si,ij,sj->s", s, j, s)
    z = np.exp(-beta * e).sum()
    return math.log(z) / j.shape[0]


def test_single_site_values():
    assert enumerate_sk_pressure(SkParams(beta=1.7, j0=0.4, j=1.0),
                                 1).value == pytest.approx(math.log(2.0),
                                                           abs=1e-14)
    got = enumerate_hopfield_pressure(HopfieldParams(beta=1.3, alpha=1.0), 1)
    assert got.value == pytest.approx(math.log(2.0) + 1.3 / 2.0, abs=1e-12)


def test_two_site_against_direct_sum():
    params = SkParams(beta=0.9, j0=0.5, j=1.0)
    got = enumerate_sk_pressure(params, 2, samples=3, seed=9)
    direct = np.mean([
        direct_sk_pressure(sk_disorder_sample(params, 2,
                                              substream(9, 0, s)).matrix,
                           params.beta)
        for s in range(3)])
    assert got.value == pytest.approx(float(direct), abs=1e-12)


def test_gray_walk_matches_direct_n4():
    params = SkParams(beta=1.1, j0=0.2, j=1.0)
    got = enumerate_sk_pressure(params, 4, samples=2, seed=4)
    direct = np.mean([
        direct_sk_pressure(sk_disorder_sample(params, 4,
                                              substream(4, 0, s)).matrix,
                           params.beta)
        for s in range(2)])
    assert got.value == pytest.approx(float(direct), abs=1e-12)


def test_enumeration_bit_determinism():
    params = SkParams(beta=0.7, j0=0.1, j=1.0)
    a = enumerate_sk_pressure(params, 6, samples=4, seed=11)
    b = enumerate_sk_pressure(params, 6, samples=4, seed=11)
    assert a.value == b.value and a.stderr == b.stderr
    c = enumerate_sk_pressure(params, 6, samples=4, seed=12)
    assert c.value != a.value


def test_sample_prefix_stability():
    # widening the disorder average keeps earlier samples untouched, so
    # the two-sample pieces can be reconstructed from single-sample runs
    params = SkParams(beta=0.8, j0=0.3, j=1.0)
    one = enumerate_sk_pressure(params, 5, samples=1, seed=2)
    two = enumerate_sk_pressure(params, 5, samples=2, seed=2)
    v2 = 2.0 * two.value - one.value
    assert two.stderr == pytest.approx(abs(v2 - one.value) / 2.0, abs=1e-12)


def test_enumeration_size_guard():
    with pytest.raises(RangeViolation):
        enumerate_sk_pressure(SkParams(beta=1.0, j0=0.0, j=1.0), 21)
    with pytest.raises(RangeViolation):
        enumerate_hopfield_pressure(HopfieldParams(beta=1.0, alpha=0.1), 0)


def test_single_pattern_gauge_invariance():
    # one binary pattern is gauge-equivalent to the uniform ferromagnet,
    # so the quenched average carries no disorder at all
    params = HopfieldParams(beta=1.1, alpha=0.1)
    got = enumerate_hopfield_pressure(params, 8, samples=4, seed=3, p=1)
    assert got.stderr <= 1e-13
    k = np.arange(9)
    tot = (8 - 2 * k) ** 2
    z = (np.exp(params.beta * tot / 16.0)
         * np.array([math.comb(8, int(i)) for i in k])).sum()
    assert got.value == pytest.approx(math.log(z) / 8.0, abs=1e-12)


def test_pattern_layout():
    sample = hopfield_disorder_sample(HopfieldParams(beta=1.0, alpha=0.5), 10,
                                      substream(0, 1, 0))
    assert sample.p == 5
    assert set(np.unique(sample.patterns[0])) <= {-1.0, 1.0}


def test_detailed_balance_two_site():
    j = np.array([[0.0, 0.9], [0.9, 0.0]])
    beta = 0.7
    states = metropolis_state_trace(SkParams(beta=beta, j0=0.0, j=1.0), 2,
                                    60000, seed=1, couplings=j)
    s = spins(2)
    e = -0.5 * np.einsum("si,ij,sj->s", s, j, s)
    boltz = np.exp(-beta * e)
    boltz /= boltz.sum()
    for state in range(4):
        ind = (states == state).astype(float)
        batches = np.array([b.mean() for b in np.array_split(ind, 20)])
        se = batches.std(ddof=1) / math.sqrt(20)
        assert abs(ind.mean() - boltz[state]) <= 3.0 * se + 0.01


def test_histogram_free_chain():
    hist = overlap_histogram(SkParams(beta=0.0, j0=0.0, j=1.0), 300, 800,
                             seed=0, disorder_samples=1)
    half_bin = 0.5 * float(hist.edges[1] - hist.edges[0])
    assert abs(hist.mode_center) <= half_bin
    assert 0.8 <= hist.std * math.sqrt(300) <= 1.2
    assert abs(hist.mean) <= 0.02


def test_histogram_aligned_chain():
    hist = overlap_histogram(SkParams(beta=2.0, j0=3.0, j=0.0), 150, 400,
                             seed=0, disorder_samples=1)
    width = float(hist.edges[1] - hist.edges[0])
    assert 1.0 - hist.mode_center <= 2.0 * width


def test_histogram_glass_broadening():
    base = overlap_histogram(SkParams(beta=0.0, j0=0.0, j=1.0), 250, 700,
                             seed=0, disorder_samples=2)
    glass = overlap_histogram(SkParams(beta=2.0, j0=0.0, j=1.0), 250, 700,
                              seed=0, disorder_samples=2)
    assert glass.std >= 3.0 * base.std


def test_histogram_csv_shape():
    hist = overlap_histogram(SkParams(beta=0.0, j0=0.0, j=1.0), 60, 80,
                             seed=0, disorder_samples=1)
    lines = hist.to_csv().strip().split("\n")
    assert lines[0] == "bin_lo,bin_hi,count"
    assert len(lines) == len(hist.counts) + 1
    assert int(sum(int(l.split(",")[2]) for l in lines[1:])) == hist.n_samples


def test_metropolis_free_overlap():
    res = metropolis_run(HopfieldParams(beta=0.0, alpha=0.02), 200, 400,
                         seed=0)
    assert abs(res.overlap.value) <= 3.0 * res.overlap.stderr + 0.05


def test_metropolis_one_body_magnet():
    # one stored pattern at low temperature: the chain must track the
    # deterministic one-body magnetization
    res = metropolis_run(HopfieldParams(beta=1.8, alpha=0.01), 500, 300,
                         seed=0, p=1)
    m = 0.5
    for _ in range(200):
        m = math.tanh(1.8 * m)
    assert res.overlap.value == pytest.approx(m, abs=0.02)


def test_decoupled_interpolation_exact():
    check = interpolation_derivative_check(
        "sk", "w", InterpolationPoint(t=0.0, x=(0.0,), w=0.3),
        SkParams(beta=1.0, j0=0.8, j=1.0), n=4, samples=8, seed=0)
    assert check.abs_diff <= 1e-10


def test_path_weight_identity_exact():
    check = interpolation_derivative_check(
        "sk", "w", InterpolationPoint(t=0.5, x=(0.4,), w=0.3),
        SkParams(beta=1.0, j0=0.8, j=1.0), n=5, samples=32, seed=0)
    assert check.abs_diff <= 1e-8


def test_flat_interpolation_identities_statistical():
    params = SkParams(beta=1.0, j0=0.8, j=1.0)
    pt = InterpolationPoint(t=0.5, x=(0.4,), w=0.3)
    for target in ("t", "x"):
        check = interpolation_derivative_check("sk", target, pt, params, n=6,
                                               samples=1000, seed=0)
        denom = max(abs(check.fd_lhs), abs(check.bracket_rhs))
        assert check.abs_diff <= max(1e-2 * denom, 4.0 * check.stderr)


def test_pattern_interpolation_identity_statistical():
    check = interpolation_derivative_check(
        "hopfield", "x",
        InterpolationPoint(t=0.5, x=(0.5,), y=(0.6,), z=0.3, w=0.3),
        HopfieldParams(beta=0.6, alpha=0.5), n=6, samples=1000, seed=0, p=3)
    denom = max(abs(check.fd_lhs), abs(check.bracket_rhs))
    assert check.abs_diff <= max(1e-2 * denom, 4.0 * check.stderr)


_HOP_EDGE = dict(t=0.5, x=(0.5,), y=(0.6,), z=0.3, w=0.3)


_SK_EDGE = SkParams(beta=1.0, j0=0.8)


@pytest.mark.parametrize("model,target,edge,thetas,bad", [
    ("hopfield", "t", dict(_HOP_EDGE, t=0.0), (), "t=0.0"),
    ("hopfield", "x", dict(_HOP_EDGE, x=(0.0,)), (), "x=0.0"),
    ("hopfield", "y", dict(_HOP_EDGE, y=(0.0,)), (), "y=0.0"),
    ("sk", "x1", dict(t=0.5, x=(0.0, 0.3), w=0.3), (0.5,), "x1=0.0"),
    ("sk", "x2", dict(t=0.5, x=(0.4, 0.0), w=0.3), (0.5,), "x2=0.0"),
    ("sk", "t", dict(t=0.5, x=(-0.4,), w=0.3), (), "x=-0.4"),
    ("sk", "x", dict(t=-0.5, x=(0.4,), w=0.3), (), "t=-0.5"),
    ("hopfield", "t", dict(_HOP_EDGE, y=(-0.6,)), (), "y=-0.6"),
    ("sk", "x1", dict(t=0.5, x=(0.4, -0.25), w=0.3), (0.5,), "x2=-0.25"),
    ("sk", "x1", dict(t=-0.5, x=(0.4, 0.25), w=0.3), (0.5,), "t=-0.5"),
    ("sk", "w", dict(t=math.nan, x=(0.4,), w=0.3), (), "t=nan"),
    ("hopfield", "t", dict(_HOP_EDGE, w=math.inf), (), "w=inf"),
], ids=["hopfield-t", "hopfield-x", "hopfield-y", "1rsb-x1", "1rsb-x2",
        "sk-x-of-t", "sk-t-of-x", "hopfield-y-of-t", "1rsb-x2-of-x1",
        "1rsb-t-of-x1", "sk-nan-t", "hopfield-inf-w"])
def test_square_root_target_at_domain_edge(model, target, edge, thetas, bad):
    # the difference stencil would leave the domain: reach below zero
    # under a square root at the target, start below zero at another
    # coordinate under one, or start from a coordinate that is not finite
    params = (_SK_EDGE if model == "sk"
              else HopfieldParams(beta=0.6, alpha=0.5))
    with pytest.raises(RangeViolation, match="at %s: the stencil leaves "
                                             "the domain" % re.escape(bad)):
        interpolation_derivative_check(model, target,
                                       InterpolationPoint(**edge), params,
                                       n=4, samples=1, thetas=thetas, p=3)


def test_substream_reproducible_and_disjoint():
    a = substream(7, 2, 5).random(4)
    b = substream(7, 2, 5).random(4)
    c = substream(7, 2, 6).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# Exact reprs recorded before the three per-model check loops were folded
# into one driver: every per-sample expression keeps its operation order,
# so refactors of the oracle must reproduce these bit for bit.
_GOLDEN_SK = SkParams(beta=1.0, j0=0.8, j=1.0)
_GOLDEN_HOP = HopfieldParams(beta=0.6, alpha=0.5)
_GOLDEN_CHECKS = [
    ("sk", "t", {}, "DerivativeCheck(fd_lhs=0.22274333104863353, bracket_rhs=0.2823734212580397, abs_diff=0.05963009020940623, rel_diff=0.21117458556736757, stderr=0.051951569529563035)"),
    ("sk", "x", {}, "DerivativeCheck(fd_lhs=0.3434500882224461, bracket_rhs=0.31276727775890706, abs_diff=0.030682810463539063, rel_diff=0.08933702891835156, stderr=0.20739574612522982)"),
    ("sk", "w", {}, "DerivativeCheck(fd_lhs=0.29815722947645273, bracket_rhs=0.29815722947635065, abs_diff=1.0209425897282169e-13, rel_diff=3.4241751961571903e-13, stderr=1.190483762954743e-13)"),
    ("sk", "x1", {"thetas": (0.5,)}, "DerivativeCheck(fd_lhs=0.16507394511337967, bracket_rhs=0.37786269129726074, abs_diff=0.2127887461838811, rel_diff=0.5631377510527558, stderr=0.078902703436109)"),
    ("sk", "x2", {"thetas": (0.5,)}, "DerivativeCheck(fd_lhs=0.4404016091390948, bracket_rhs=0.4152775871930907, abs_diff=0.025124021946004122, rel_diff=0.0570479794456633, stderr=0.013023772679538458)"),
    ("sk", "w", {"thetas": (0.5,)}, "DerivativeCheck(fd_lhs=0.12476033006510641, bracket_rhs=0.12476033006477884, abs_diff=3.2756436452174853e-13, rel_diff=2.625549037509026e-12, stderr=1.255923980813261e-13)"),
    ("hopfield", "t", {}, "DerivativeCheck(fd_lhs=0.18036156935106554, bracket_rhs=0.19459061194362817, abs_diff=0.014229042592562649, rel_diff=0.07312296544236535, stderr=0.02514524076436676)"),
    ("hopfield", "x", {}, "DerivativeCheck(fd_lhs=0.12351087859404271, bracket_rhs=0.15318006531622577, abs_diff=0.02966918672218304, rel_diff=0.19368830180959778, stderr=0.019156642258332527)"),
    ("hopfield", "y", {}, "DerivativeCheck(fd_lhs=0.03573436993449376, bracket_rhs=0.10730313298581111, abs_diff=0.07156876305131733, rel_diff=0.6669773850944408, stderr=0.017618742756469703)"),
    ("hopfield", "z", {}, "DerivativeCheck(fd_lhs=0.19801991426267782, bracket_rhs=0.19801991426262058, abs_diff=5.721349320234974e-14, rel_diff=2.889279768420401e-13, stderr=9.076250103900983e-14)"),
    ("hopfield", "w", {}, "DerivativeCheck(fd_lhs=0.14014661093388522, bracket_rhs=0.14014661093379455, abs_diff=9.066358774845185e-14, rel_diff=6.469195875968973e-13, stderr=5.536109664724541e-14)"),
]


@pytest.mark.parametrize("model,target,extra,expected", _GOLDEN_CHECKS,
                         ids=["%s-%s%s" % (m, t, "-1rsb" if e else "")
                              for m, t, e, _ in _GOLDEN_CHECKS])
def test_interpolation_check_golden(model, target, extra, expected):
    if model == "hopfield":
        params, kw = _GOLDEN_HOP, {"p": 3}
        pt = InterpolationPoint(t=0.5, x=(0.5,), y=(0.6,), z=0.3, w=0.3)
    elif extra:
        params, kw = _GOLDEN_SK, dict(extra, inner_samples=16)
        pt = InterpolationPoint(t=0.5, x=(0.4, 0.3), w=0.3)
    else:
        params, kw = _GOLDEN_SK, {}
        pt = InterpolationPoint(t=0.5, x=(0.4,), w=0.3)
    check = interpolation_derivative_check(model, target, pt, params, n=5,
                                           samples=3, seed=0, **kw)
    assert repr(check) == expected


def test_enumeration_golden():
    assert repr(enumerate_sk_pressure(_GOLDEN_SK, 5, samples=3, seed=0)) == \
        "Estimate(value=0.8849603458887225, stderr=0.05301551367365933)"
    assert repr(enumerate_hopfield_pressure(_GOLDEN_HOP, 5, samples=3,
                                            seed=0)) == \
        "Estimate(value=0.9972428728911017, stderr=0.07862755975073568)"


@pytest.mark.parametrize("model,point,params", [
    ("sk", InterpolationPoint(t=0.5, x=(0.4, 0.25), w=0.3), _GOLDEN_SK),
    ("hopfield", InterpolationPoint(t=0.5, x=(0.5, 0.2), y=(0.6,), z=0.3,
                                    w=0.3), _GOLDEN_HOP),
    ("hopfield", InterpolationPoint(t=0.5, x=(0.5,), y=(0.6, 0.9), z=0.3,
                                    w=0.3), _GOLDEN_HOP),
], ids=["sk-x", "hopfield-x", "hopfield-y"])
def test_flat_check_rejects_extra_coordinates(model, point, params):
    # a point meant for a deeper check must not be read at the flat level
    with pytest.raises(RangeViolation, match="at most one field variance"):
        interpolation_derivative_check(model, "x", point, params, n=4,
                                       samples=2, p=3)


_SK_FLAT = SkParams(beta=1.0, j0=0.8, j=1.0)
_FLAT_POINT = InterpolationPoint(t=0.5, x=(0.4,), w=0.3)


@pytest.mark.parametrize("call", [
    lambda: interpolation_derivative_check("sk", "t", _FLAT_POINT, _SK_FLAT,
                                           n=4, samples=0),
    lambda: enumerate_sk_pressure(_SK_FLAT, 4, samples=0),
    lambda: enumerate_hopfield_pressure(_GOLDEN_HOP, 4, samples=0),
    lambda: interpolation_derivative_check("sk", "t", _FLAT_POINT, _SK_FLAT,
                                           n=0, samples=2),
    lambda: metropolis_run(_SK_FLAT, 0, 10),
    lambda: metropolis_run(_GOLDEN_HOP, 0, 10),
    lambda: overlap_histogram(_SK_FLAT, 10, 10, disorder_samples=0),
    lambda: overlap_histogram(_SK_FLAT, 0, 10),
    lambda: overlap_histogram(_SK_FLAT, 10, 0),
    lambda: metropolis_state_trace(_SK_FLAT, 0, 10),
    lambda: metropolis_run(_SK_FLAT, 10, 10, burn_in=-3),
    lambda: metropolis_run(_GOLDEN_HOP, 10, 10, p=0),
    lambda: enumerate_hopfield_pressure(_GOLDEN_HOP, 4, p=0),
    lambda: metropolis_state_trace(_SK_FLAT, 4, 0),
    lambda: metropolis_state_trace(_SK_FLAT, 4, -1),
], ids=["interp-samples0", "enum-sk-samples0", "enum-hop-samples0",
        "interp-n0", "metropolis-sk-n0", "metropolis-hop-n0",
        "histogram-disorder0", "histogram-n0", "histogram-sweeps0",
        "trace-n0", "metropolis-negative-burn-in", "metropolis-hop-p0",
        "enum-hop-p0", "trace-sweeps0", "trace-negative-sweeps"])
def test_empty_oracle_inputs_are_typed_errors(call):
    with pytest.raises(RangeViolation):
        call()


@pytest.mark.parametrize("call", [
    lambda: interpolation_derivative_check("sk", "w", _FLAT_POINT, _SK_FLAT,
                                           n=3, samples=2, step=0.0),
    lambda: interpolation_derivative_check(
        "sk", "w", InterpolationPoint(t=0.5, x=(0.4, 0.25), w=0.3), _SK_FLAT,
        n=3, samples=2, thetas=(0.0,)),
    lambda: interpolation_derivative_check(
        "sk", "w", InterpolationPoint(t=0.5, x=(0.4, 0.25), w=0.3), _SK_FLAT,
        n=3, samples=2, thetas=(0.5,), inner_samples=0),
    lambda: overlap_histogram(_SK_FLAT, 10, 10, bins=0),
    # the pairwise model has no hidden layer; y and z used to be dropped
    lambda: interpolation_derivative_check(
        "sk", "t", InterpolationPoint(t=0.5, x=(0.4,), y=(0.3,), z=0.2, w=0.3),
        _SK_FLAT, n=3, samples=2),
    # pattern arguments of a pairwise call used to be dropped
    lambda: metropolis_run(SkParams(beta=0.5), 20, 10, seed=1, p=3),
    lambda: metropolis_run(SkParams(beta=0.5), 20, 10, seed=1,
                           boolean_patterns=True),
    lambda: interpolation_derivative_check(
        "sk", "t", _FLAT_POINT, _SK_FLAT, n=4, samples=5, p=3),
], ids=["interp-step0", "interp-theta0", "interp-inner0", "histogram-bins0",
        "interp-sk-hidden-layer", "metropolis-sk-p",
        "metropolis-sk-boolean-patterns", "interp-sk-p"])
def test_oracle_knobs_are_typed_errors(call):
    # each used to return NaN, a bare ValueError or an unusable histogram
    with pytest.raises(RangeViolation):
        call()


@pytest.mark.parametrize("couplings", [
    [[0.8, 0.3], [0.3, 0.8]], [[0.0, 0.9], [-0.3, 0.0]],
    [[0.0, math.nan], [math.nan, 0.0]], [[0.0, math.inf], [math.inf, 0.0]],
], ids=["diagonal", "asymmetric", "nan", "inf"])
def test_state_trace_refuses_couplings_it_cannot_sample(couplings):
    # the chain's flip cost assumes E = -sigma J sigma / 2 with a finite,
    # symmetric, zero-diagonal J: these used to sample other weights
    # (0.375/0.114/0.120/0.391 against Boltzmann 0.323/0.177/0.177/0.323
    # for the first) or, with NaN, never accept a flip
    with pytest.raises(RangeViolation, match="symmetric with a zero diagonal"):
        metropolis_state_trace(SkParams(beta=1.0), 2, 10, seed=1,
                               couplings=np.array(couplings))


@pytest.mark.parametrize("shape", [(5, 5), (4,), (4, 5)])
def test_state_trace_couplings_shape_is_typed_error(shape):
    # a mismatched matrix used to fail inside numpy's matmul
    with pytest.raises(ShapeMismatch, match=r"\(4, 4\).*%s" % re.escape(
            repr(shape))):
        metropolis_state_trace(SkParams(beta=0.5), 4, 5,
                               couplings=np.zeros(shape))
