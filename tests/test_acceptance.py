"""End-to-end acceptance: hierarchy collapse, closed-form anchoring,
stationarity, finite-size oracles, domain guards and reproducibility.

The closed-form references here are written directly against their own
Gauss-Hermite grids and never call into the quadrature layer, so each
comparison is double entry."""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from rsbsolve import (
    HopfieldParams,
    InterpolationPoint,
    QuadratureSpec,
    RsbAnsatz,
    SkParams,
    SusceptibilityDivergence,
    enumerate_hopfield_pressure,
    enumerate_sk_pressure,
    hop_p_closed_form,
    hop_pressure_krsb,
    hop_pressure_rs,
    hop_sce_krsb,
    interpolation_derivative_check,
    metropolis_run,
    sk_pressure_krsb,
    sk_pressure_rs,
    sk_sce_krsb,
    solve_model,
)
from rsbsolve.cli import main

# 120 nodes: the integrands have complex poles whose distance from the real
# axis shrinks as the conjugate-overlap coefficients grow, and 60 nodes is
# not enough near the admissibility floor of the random draws below.
_X, _W = np.polynomial.hermite.hermgauss(120)
GH_X = _X * math.sqrt(2.0)
GH_W = _W / math.sqrt(math.pi)

LOG2 = math.log(2.0)


# ---------------------------------------------------------------------------
# reference transcriptions (independent of the library quadrature)

def ref_sk_onestep(params, m, qs, theta):
    beta, j0, j = params.beta, params.j0, params.j
    q1, q2 = qs
    g = (beta * j * math.sqrt(q1) * GH_X[:, None]
         + beta * j * math.sqrt(q2 - q1) * GH_X[None, :]
         + beta * j0 * m)
    inner = (np.cosh(g) ** theta) @ GH_W
    field = LOG2 + float(GH_W @ np.log(inner)) / theta
    return (field
            + 0.25 * (beta * j) ** 2
            - 0.5 * beta * j0 * m * m
            + 0.25 * (beta * j) ** 2 * (theta * q1 * q1
                                        + (1.0 - theta) * q2 * q2)
            - 0.5 * (beta * j) ** 2 * q2)


def ref_sk_twostep(params, m, qs, thetas):
    beta, j0, j = params.beta, params.j0, params.j
    q1, q2, q3 = qs
    t1, t2 = thetas
    g = (beta * j * math.sqrt(q1) * GH_X[:, None, None]
         + beta * j * math.sqrt(q2 - q1) * GH_X[None, :, None]
         + beta * j * math.sqrt(q3 - q2) * GH_X[None, None, :]
         + beta * j0 * m)
    inner = (np.cosh(g) ** t2) @ GH_W
    mid = (inner ** (t1 / t2)) @ GH_W
    field = LOG2 + float(GH_W @ np.log(mid)) / t1
    bracket = ((1.0 - q3) ** 2
               - t1 * (q2 * q2 - q1 * q1)
               - t2 * (q3 * q3 - q2 * q2))
    return (field
            + 0.25 * (beta * j) ** 2 * bracket
            - 0.5 * beta * j0 * m * m)


def ref_hop_onestep(params, m, qs, theta):
    alpha, beta = params.alpha, params.beta
    q1, q2 = qs
    qd2 = 1.0 - beta * (1.0 - q2)
    qd1 = qd2 - beta * theta * (q2 - q1)
    p1 = beta * q1 / qd1 ** 2
    p2 = p1 + beta * (q2 - q1) / (qd1 * qd2)
    g = (beta * m
         + math.sqrt(alpha * beta * p1) * GH_X[:, None]
         + math.sqrt(alpha * beta * (p2 - p1)) * GH_X[None, :])
    inner = (np.cosh(g) ** theta) @ GH_W
    field = LOG2 + float(GH_W @ np.log(inner)) / theta
    return (field
            + 0.5 * alpha / theta * math.log(
                1.0 + beta * theta * (q2 - q1) / qd1)
            - 0.5 * alpha * math.log(qd2)
            + 0.5 * alpha * beta * q1 / qd1
            - 0.5 * beta * m * m
            - 0.5 * alpha * beta * p2 * (1.0 - q2)
            - 0.5 * alpha * beta * theta * (p2 * q2 - p1 * q1))


def ref_hop_twostep(params, m, qs, thetas):
    alpha, beta = params.alpha, params.beta
    q1, q2, q3 = qs
    t1, t2 = thetas
    qd3 = 1.0 - beta * (1.0 - q3)
    qd2 = qd3 - beta * t2 * (q3 - q2)
    qd1 = qd2 - beta * t1 * (q2 - q1)
    p1 = beta * q1 / qd1 ** 2
    p2 = p1 + beta * (q2 - q1) / (qd1 * qd2)
    p3 = p2 + beta * (q3 - q2) / (qd2 * qd3)
    g = (beta * m
         + math.sqrt(alpha * beta * p1) * GH_X[:, None, None]
         + math.sqrt(alpha * beta * (p2 - p1)) * GH_X[None, :, None]
         + math.sqrt(alpha * beta * (p3 - p2)) * GH_X[None, None, :])
    inner = (np.cosh(g) ** t2) @ GH_W
    mid = (inner ** (t1 / t2)) @ GH_W
    field = LOG2 + float(GH_W @ np.log(mid)) / t1
    return (field
            + 0.5 * alpha / t2 * math.log(
                1.0 + beta * t2 * (q3 - q2) / qd2)
            + 0.5 * alpha / t1 * math.log(
                1.0 + beta * t1 * (q2 - q1) / qd1)
            - 0.5 * alpha * math.log(qd3)
            + 0.5 * alpha * beta * q1 / qd1
            - 0.5 * beta * m * m
            - 0.5 * alpha * beta * p3 * (1.0 - q3)
            - 0.5 * alpha * beta * (t2 * (p3 * q3 - p2 * q2)
                                    + t1 * (p2 * q2 - p1 * q1)))


def ref_hop_flat(params, m, q):
    alpha, beta = params.alpha, params.beta
    qd = 1.0 - beta * (1.0 - q)
    p = beta * q / qd ** 2
    g = beta * m + math.sqrt(alpha * beta * p) * GH_X
    field = LOG2 + float(GH_W @ np.log(np.cosh(g)))
    return (field
            - 0.5 * alpha * math.log(qd)
            + 0.5 * alpha * beta * q / qd
            - 0.5 * beta * m * m
            - 0.5 * alpha * beta * p * (1.0 - q))


def ref_sk_flat(params, m, q):
    beta, j0, j = params.beta, params.j0, params.j
    g = beta * (j * math.sqrt(q) * GH_X + j0 * m)
    field = LOG2 + float(GH_W @ np.log(np.cosh(g)))
    return (field
            + 0.25 * (beta * j) ** 2 * (1.0 - q) ** 2
            - 0.5 * beta * j0 * m * m)


# ---------------------------------------------------------------------------
# criterion 1: merging adjacent plateaus drops one hierarchy level

COLLAPSE_SPEC = QuadratureSpec(nodes_per_level=12)
COLLAPSE_SETUPS = {
    1: ((0.45, 0.45), (0.45,), (), ()),
    2: ((0.3, 0.55, 0.55), (0.3, 0.55), (0.2,), (0.2,)),
    3: ((0.2, 0.4, 0.6, 0.6), (0.2, 0.4, 0.6), (0.1, 0.3), (0.1, 0.3)),
}


def _assert_level_merge(model, make_params, pressure_fn, sce_fn):
    for k, (deep_qs, base_qs, lower, base_th) in COLLAPSE_SETUPS.items():
        for beta in np.linspace(0.4, 1.6, 5):
            pt = make_params(float(beta))
            for merged_theta in np.linspace(0.45, 0.95, 5):
                deep = RsbAnsatz(k=k, m=0.25, qs=deep_qs,
                                 thetas=lower + (float(merged_theta),))
                base = RsbAnsatz(k=k - 1, m=0.25, qs=base_qs, thetas=base_th)
                dp = pressure_fn(pt, deep, spec=COLLAPSE_SPEC).pressure
                bp = pressure_fn(pt, base, spec=COLLAPSE_SPEC).pressure
                assert abs(dp - bp) <= 1e-10, (model, k, beta, merged_theta)
                dn = sce_fn(pt, deep, spec=COLLAPSE_SPEC)
                bn = sce_fn(pt, base, spec=COLLAPSE_SPEC)
                assert abs(dn.m - bn.m) <= 1e-10
                for a in range(k - 1):
                    assert abs(dn.qs[a] - bn.qs[a]) <= 1e-10
                assert abs(dn.qs[k - 1] - bn.qs[k - 1]) <= 1e-10
                assert abs(dn.qs[k] - dn.qs[k - 1]) <= 1e-10
                if model == "hopfield":
                    # the conjugate layer inherits the merge exactly
                    dps = hop_p_closed_form(pt, deep)
                    bps = hop_p_closed_form(pt, base)
                    assert abs(dps[k] - dps[k - 1]) <= 1e-12
                    for a in range(k):
                        assert abs(dps[a] - bps[a]) <= 1e-12


def test_criterion_1_collapse_hierarchy():
    _assert_level_merge("sk", lambda b: SkParams(beta=b, j0=0.3, j=1.0),
                        sk_pressure_krsb, sk_sce_krsb)
    _assert_level_merge("hopfield",
                        lambda b: HopfieldParams(beta=b, alpha=0.08),
                        hop_pressure_krsb, hop_sce_krsb)
    # the fully merged one-level point must agree with the flat closed
    # forms; the pattern model stays below the response blow-up where a
    # sixty-node reference grid is no longer converged to 1e-10
    for beta in np.linspace(0.4, 1.6, 5):
        skp = SkParams(beta=float(beta), j0=0.3, j=1.0)
        hpp = HopfieldParams(beta=float(0.4 + (beta - 0.4) * 2.0 / 3.0),
                             alpha=0.08)
        for theta in np.linspace(0.45, 0.95, 5):
            flat = RsbAnsatz(k=1, m=0.25, qs=(0.45, 0.45),
                             thetas=(float(theta),))
            assert sk_pressure_krsb(skp, flat).pressure == pytest.approx(
                ref_sk_flat(skp, 0.25, 0.45), abs=1e-10)
            assert hop_pressure_krsb(hpp, flat).pressure == pytest.approx(
                ref_hop_flat(hpp, 0.25, 0.45), abs=1e-10)


# ---------------------------------------------------------------------------
# criterion 2: generic evaluators vs independent transcriptions

def _draw_sk(rng, k):
    params = SkParams(beta=float(rng.uniform(0.3, 1.2)),
                      j0=float(rng.uniform(0.0, 0.8)),
                      j=float(rng.uniform(0.6, 1.2)))
    m = float(rng.uniform(-0.9, 0.9))
    qs = tuple(sorted(rng.uniform(0.05, 0.95, size=k + 1)))
    while True:
        thetas = tuple(sorted(rng.uniform(0.05, 0.95, size=k)))
        if all(b - a >= 0.05 for a, b in zip(thetas, thetas[1:])):
            break
    return params, m, qs, thetas


def _draw_hop(rng, k):
    while True:
        params = HopfieldParams(beta=float(rng.uniform(0.3, 1.2)),
                                alpha=float(rng.uniform(0.02, 0.3)))
        m = float(rng.uniform(-0.9, 0.9))
        qs = tuple(sorted(rng.uniform(0.05, 0.95, size=k + 1)))
        thetas = tuple(sorted(rng.uniform(0.05, 0.95, size=k)))
        if any(b - a < 0.05 for a, b in zip(thetas, thetas[1:])):
            continue
        qmin = 1.0 - params.beta * (1.0 - qs[-1])
        for t, lo, hi in zip(thetas[::-1], qs[-2::-1], qs[::-1]):
            qmin -= params.beta * t * (hi - lo)
        if qmin >= 0.25:
            return params, m, qs, thetas


def test_criterion_2_closed_form_anchoring():
    rng = np.random.default_rng(20)
    for _ in range(20):
        params, m, qs, thetas = _draw_sk(rng, 1)
        got = sk_pressure_krsb(params, RsbAnsatz(k=1, m=m, qs=qs,
                                                 thetas=thetas)).pressure
        assert got == pytest.approx(ref_sk_onestep(params, m, qs, thetas[0]),
                                    abs=1e-9)
    for _ in range(20):
        params, m, qs, thetas = _draw_sk(rng, 2)
        got = sk_pressure_krsb(params, RsbAnsatz(k=2, m=m, qs=qs,
                                                 thetas=thetas)).pressure
        assert got == pytest.approx(ref_sk_twostep(params, m, qs, thetas),
                                    abs=1e-9)
    for _ in range(20):
        params, m, qs, thetas = _draw_hop(rng, 1)
        got = hop_pressure_krsb(params, RsbAnsatz(k=1, m=m, qs=qs,
                                                  thetas=thetas)).pressure
        assert got == pytest.approx(ref_hop_onestep(params, m, qs, thetas[0]),
                                    abs=1e-9)
    for _ in range(20):
        params, m, qs, thetas = _draw_hop(rng, 2)
        got = hop_pressure_krsb(params, RsbAnsatz(k=2, m=m, qs=qs,
                                                  thetas=thetas)).pressure
        assert got == pytest.approx(ref_hop_twostep(params, m, qs, thetas),
                                    abs=1e-9)


# ---------------------------------------------------------------------------
# criterion 3: every converged fixed point is a stationary point

SOLVE_POINTS = [
    ("sk", SkParams(beta=0.8, j0=0.0, j=1.0), (), 80),
    ("sk", SkParams(beta=1.6, j0=0.3, j=1.0), (), 80),
    ("sk", SkParams(beta=1.2, j0=0.5, j=1.0), (), 80),
    ("sk", SkParams(beta=2.0, j0=0.0, j=1.0), (), 80),
    ("sk", SkParams(beta=1.4, j0=0.0, j=1.0), (0.4,), 80),
    ("sk", SkParams(beta=1.8, j0=0.2, j=1.0), (0.3,), 80),
    ("sk", SkParams(beta=1.1, j0=0.6, j=1.0), (0.5,), 80),
    ("sk", SkParams(beta=1.6, j0=0.0, j=1.0), (0.25, 0.55), 48),
    ("sk", SkParams(beta=2.0, j0=0.3, j=1.0), (0.3, 0.6), 48),
    ("sk", SkParams(beta=1.8, j0=0.5, j=1.0), (0.3, 0.65), 48),
    ("hopfield", HopfieldParams(beta=0.7, alpha=0.1), (), 80),
    ("hopfield", HopfieldParams(beta=1.2, alpha=0.12), (), 80),
    ("hopfield", HopfieldParams(beta=1.6, alpha=0.02), (), 80),
    ("hopfield", HopfieldParams(beta=0.5, alpha=0.15), (), 80),
    ("hopfield", HopfieldParams(beta=1.2, alpha=0.1), (0.3,), 80),
    ("hopfield", HopfieldParams(beta=1.4, alpha=0.06), (0.6,), 80),
    ("hopfield", HopfieldParams(beta=1.6, alpha=0.08), (0.5,), 80),
    ("hopfield", HopfieldParams(beta=1.2, alpha=0.1), (0.25, 0.6), 48),
    ("hopfield", HopfieldParams(beta=1.4, alpha=0.06), (0.3, 0.7), 48),
    ("hopfield", HopfieldParams(beta=1.0, alpha=0.08), (0.35, 0.7), 48),
]


def test_criterion_3_fixed_points_are_stationary():
    for model, params, thetas, nodes in SOLVE_POINTS:
        spec = QuadratureSpec(nodes_per_level=nodes)
        reports = solve_model(model, params, k=len(thetas), thetas=thetas,
                              spec=spec)
        converged = [r for r in reports if r.converged]
        assert converged, (model, params)
        for rep in converged:
            assert rep.stationarity is not None
            assert rep.stationarity <= 1e-5, (model, params, rep.stationarity)


# ---------------------------------------------------------------------------
# criterion 4: exact finite-size enumeration vs flat theory

def test_criterion_4_enumeration_vs_flat_theory():
    est = enumerate_sk_pressure(SkParams(beta=0.3, j0=0.0, j=1.0), 12,
                                samples=200, seed=0)
    want = LOG2 + 0.3 ** 2 / 4.0
    assert abs(est.value - want) <= 3.0 * est.stderr + 0.02

    params = HopfieldParams(beta=0.5, alpha=1.0 / 14.0)
    est = enumerate_hopfield_pressure(params, 14, samples=2, seed=0, p=1)
    best = max(r.pressure for r in solve_model("hopfield", params, k=0)
               if r.converged)
    assert abs(est.value - best) <= 3.0 * est.stderr + 0.03


# ---------------------------------------------------------------------------
# criterion 5: interpolation derivative identities at strict tolerance

def test_criterion_5_interpolation_identities():
    flat_params = SkParams(beta=1.0, j0=0.8, j=1.0)
    flat_pt = InterpolationPoint(t=0.5, x=(0.4,), w=0.3)
    for target in ("t", "x"):
        check = interpolation_derivative_check("sk", target, flat_pt,
                                               flat_params, n=6,
                                               samples=5000, seed=5)
        assert check.rel_diff <= 1e-2, (target, check)
    check = interpolation_derivative_check("sk", "w", flat_pt, flat_params,
                                           n=6, samples=64, seed=5)
    assert check.abs_diff <= 1e-8

    deep_params = SkParams(beta=1.2, j0=0.7, j=1.0)
    deep_pt = InterpolationPoint(t=0.5, x=(0.4, 0.25), w=0.3)
    for target in ("x1", "x2"):
        check = interpolation_derivative_check("sk", target, deep_pt,
                                               deep_params, n=6,
                                               samples=5000, seed=5,
                                               thetas=(0.5,))
        assert check.rel_diff <= 1e-2, (target, check)
    check = interpolation_derivative_check("sk", "w", deep_pt, deep_params,
                                           n=6, samples=64, seed=5,
                                           thetas=(0.5,))
    assert check.abs_diff <= 1e-8

    check = interpolation_derivative_check(
        "sk", "w", InterpolationPoint(t=0.0, x=(0.0,), w=0.3), flat_params,
        n=6, samples=8, seed=5)
    assert check.abs_diff <= 1e-10


# ---------------------------------------------------------------------------
# criterion 6: zero storage load is the one-body ferromagnet

def test_criterion_6_zero_load_limit():
    for beta in (0.7, 1.3):
        params = HopfieldParams(beta=beta, alpha=0.0)
        for m in (0.0, 0.2, 0.5, 0.8):
            got = hop_pressure_rs(params, m, 0.4).pressure
            want = LOG2 + math.log(math.cosh(beta * m)) - 0.5 * beta * m * m
            assert got == pytest.approx(want, abs=1e-14)

    def magnetized(beta):
        reports = solve_model("hopfield", HopfieldParams(beta=beta, alpha=0.0),
                              k=0)
        return any(r.converged and abs(r.ansatz.m) > 1e-3 for r in reports)

    lo, hi = 0.5, 1.5
    assert not magnetized(lo) and magnetized(hi)
    for _ in range(10):
        mid = 0.5 * (lo + hi)
        if magnetized(mid):
            hi = mid
        else:
            lo = mid
    assert abs(0.5 * (lo + hi) - 1.0) <= 0.01


# ---------------------------------------------------------------------------
# criterion 7: sampled retrieval overlap vs solved flat theory

def test_criterion_7_metropolis_retrieval():
    params = HopfieldParams(beta=2.0, alpha=0.05)
    reports = solve_model("hopfield", params, k=0)
    retrieval = max((r for r in reports if r.converged),
                    key=lambda r: abs(r.ansatz.m))
    assert abs(retrieval.ansatz.m) > 0.5
    res = metropolis_run(params, 2000, 300, seed=0)
    diff = abs(res.overlap.value - abs(retrieval.ansatz.m))
    assert diff <= 0.05 + 3.0 * res.overlap.stderr


# ---------------------------------------------------------------------------
# criterion 8: divergent response region is refused, never silently wrong

def test_criterion_8_domain_guard():
    bad = [
        (HopfieldParams(beta=2.0, alpha=0.1), RsbAnsatz(k=0, m=0.1, qs=(0.2,))),
        (HopfieldParams(beta=1.5, alpha=0.05),
         RsbAnsatz(k=1, m=0.0, qs=(0.1, 0.3), thetas=(0.5,))),
        (HopfieldParams(beta=4.0, alpha=0.2),
         RsbAnsatz(k=2, m=0.2, qs=(0.3, 0.5, 0.7), thetas=(0.3, 0.6))),
        # given conjugates are never read, so they cannot skip the guard
        (HopfieldParams(beta=2.0, alpha=0.1),
         RsbAnsatz(k=0, m=0.1, qs=(0.2,), ps=(0.5,))),
    ]
    for params, ansatz in bad:
        with pytest.raises(SusceptibilityDivergence):
            hop_pressure_krsb(params, ansatz)
        with pytest.raises(SusceptibilityDivergence):
            hop_sce_krsb(params, ansatz)

    runner = CliRunner()
    res = runner.invoke(main, ["sweep", "--model", "sk", "--beta", "1",
                               "--j0", "0", "--sweep", "beta=0.9:1.1:5",
                               "--nodes", "24"], catch_exceptions=False)
    assert res.exit_code == 0
    assert "nan" not in res.stdout.lower()
    lines = res.stdout.strip().split("\n")
    false_rows = [l for l in lines[1:] if l.endswith("false")]
    true_rows = [l for l in lines[1:] if l.endswith("true")]
    assert false_rows and true_rows
    for line in false_rows:
        cells = line.split(",")
        assert all(c == "" for c in cells[3:-1])

    res = runner.invoke(main, ["sweep", "--model", "hopfield", "--beta", "1",
                               "--alpha", "0.15", "--sweep",
                               "beta=0.8:2.0:7", "--nodes", "24"],
                        catch_exceptions=False)
    assert res.exit_code == 0
    assert "nan" not in res.stdout.lower()
    for line in res.stdout.strip().split("\n")[1:]:
        for cell in line.split(","):
            if cell not in ("", "true", "false"):
                assert math.isfinite(float(cell))


# ---------------------------------------------------------------------------
# criterion 9: identical flags and seeds give byte-identical output

def test_criterion_9_byte_determinism():
    runner = CliRunner()
    verify_args = ["verify", "--suite", "enumeration", "--n", "8",
                   "--samples", "25", "--seed", "7"]
    sweep_args = ["sweep", "--model", "hopfield", "--beta", "1",
                  "--alpha", "0.1", "--sweep", "beta=0.8:1.4:4",
                  "--nodes", "32"]
    first = [runner.invoke(main, a, catch_exceptions=False).stdout_bytes
             for a in (verify_args, sweep_args)]
    second = [runner.invoke(main, a, catch_exceptions=False).stdout_bytes
              for a in (verify_args, sweep_args)]
    assert first == second
    solve_args = ["solve", "--model", "sk", "--beta", "1.6", "--j0", "0.3"]
    a = runner.invoke(main, solve_args, catch_exceptions=False).stdout
    b = runner.invoke(main, solve_args, catch_exceptions=False).stdout
    assert a == b
    json.loads(a)
