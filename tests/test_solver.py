"""Damped iteration, projection, exponent search, stationarity checks."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rsbsolve.sk
from rsbsolve import (
    BracketViolation,
    HopfieldParams,
    NonFiniteIntegrand,
    QuadratureSpec,
    RsbAnsatz,
    SkParams,
    SolverOptions,
    damped_fixed_point,
    default_starts,
    extremize_theta,
    golden_section_min,
    hop_sce_krsb,
    isotonic_nondecreasing,
    sk_pressure_rs,
    sk_sce_krsb,
    solve_grid,
    solve_model,
    stationarity_check,
)
from test_acceptance import SOLVE_POINTS

FAST = QuadratureSpec(nodes_per_level=16)


def test_contraction_to_origin():
    rep = damped_fixed_point(lambda x: 0.5 * x, np.array([1.0]))
    assert rep.converged
    assert abs(float(rep.ansatz[0])) <= 1e-9


def test_cosine_fixed_point():
    rep = damped_fixed_point(np.cos, np.array([0.3]))
    assert rep.converged
    assert float(rep.ansatz[0]) == pytest.approx(0.7390851332, abs=1e-8)


def test_expanding_map_reports_failure():
    rep = damped_fixed_point(lambda x: 2.0 * x, np.array([1.0]))
    assert not rep.converged
    assert rep.iterations == SolverOptions().max_iter


def test_damping_invariance():
    params = SkParams(beta=1.6, j0=0.3, j=1.0)
    tol = 1e-10
    reps = {}
    for damping in (0.25, 0.75):
        opts = SolverOptions(damping=damping, tol=tol)
        reps[damping] = solve_model("sk", params, k=0, options=opts)[0]
    a, b = reps[0.25].ansatz, reps[0.75].ansatz
    assert abs(a.m - b.m) <= 10.0 * tol
    assert abs(a.qs[0] - b.qs[0]) <= 10.0 * tol


def test_residual_history_mostly_monotone():
    rep = solve_model("sk", SkParams(beta=1.6, j0=0.3, j=1.0), k=0)[0]
    tail = np.asarray(rep.residual_history[-100:])
    increases = int((np.diff(tail) > 0).sum())
    assert increases <= max(1, len(tail) // 10)


def test_solution_stays_admissible():
    reps = solve_model("sk", SkParams(beta=1.8, j0=0.4, j=1.0), k=1,
                       thetas=(0.4,), spec=FAST)
    assert reps
    for rep in reps:
        a = rep.ansatz
        assert -1.0 <= a.m <= 1.0
        assert all(0.0 <= q <= 1.0 for q in a.qs)
        assert all(x <= y + 1e-14 for x, y in zip(a.qs, a.qs[1:]))


def test_isotonic_projection_properties():
    y = [0.5, 0.2, 0.4]
    z = isotonic_nondecreasing(y)
    assert list(z) == pytest.approx([0.35, 0.35, 0.4])
    assert all(a <= b + 1e-15 for a, b in zip(z, z[1:]))
    # pooling preserves the total and leaves sorted input untouched
    assert float(np.sum(z)) == pytest.approx(float(np.sum(y)), abs=1e-12)
    srt = [0.1, 0.2, 0.9]
    assert list(isotonic_nondecreasing(srt)) == pytest.approx(srt)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                max_size=8))
def test_isotonic_projection_random(y):
    z = np.asarray(isotonic_nondecreasing(y))
    assert np.all(np.diff(z) >= -1e-15)
    assert float(z.sum()) == pytest.approx(float(np.sum(y)), abs=1e-10)
    z2 = np.asarray(isotonic_nondecreasing(z))
    assert np.allclose(z, z2, atol=1e-12)


def test_golden_section_quadratic():
    got = golden_section_min(lambda t: (t - 0.3) ** 2, 0.01, 0.99)
    assert got == pytest.approx(0.3, abs=1e-3)


def test_golden_section_empty_bracket():
    with pytest.raises(BracketViolation):
        golden_section_min(lambda t: t, 0.9, 0.2)


def test_exponent_search_flat_profile_parks_midway():
    # below the glass transition the solved plateaus merge, the exponent
    # drops out, and the search must flag the level instead of moving it
    ext = extremize_theta("sk", SkParams(beta=0.8, j0=0.0, j=1.0), 1,
                          spec=FAST)
    assert ext.degenerate == (True,)
    assert ext.thetas[0] == pytest.approx(0.5, abs=1e-12)


def test_exponent_search_glass_phase():
    ext = extremize_theta("sk", SkParams(beta=1.4, j0=0.0, j=1.0), 1,
                          spec=FAST)
    assert ext.degenerate == (False,)
    assert 0.01 <= ext.thetas[0] <= 0.99
    assert math.isfinite(ext.pressure)
    assert ext.report.converged


def test_exponent_search_minimizes_pairwise_pressure():
    # Guerra's bound: every exponent gives an upper bound on the pressure,
    # so the search must find the interior minimum near theta ~ 0.23
    # (P ~ 1.174014), well below the flat value 1.174117, and not run to
    # the bracket edge where the solved pressure approaches it
    spec = QuadratureSpec(nodes_per_level=40)
    params = SkParams(beta=1.4, j0=0.0, j=1.0)
    ext = extremize_theta("sk", params, 1, spec=spec, sweeps=1, tol=1e-2)
    flat = max(r.pressure for r in solve_model("sk", params, 0, spec=spec)
               if r.converged)
    assert ext.degenerate == (False,)
    assert 0.05 < ext.thetas[0] < 0.9
    assert ext.pressure <= flat - 5e-5
    assert ext.curvature[0] > 0.0


def test_exponent_search_minimizes_pattern_pressure():
    # on 40 nodes the solved pressure rises from 1.056895 at theta=0.07
    # through 1.057093 at 0.3 and 1.057270 at 0.9 towards the flat value
    # 1.057282, so a maximizer would walk back to the flat collapse
    spec = QuadratureSpec(nodes_per_level=40)
    params = HopfieldParams(beta=1.6, alpha=0.08)
    ext = extremize_theta("hopfield", params, 1, spec=spec, sweeps=1,
                          tol=1e-2)
    flat = max(r.pressure for r in solve_model("hopfield", params, 0,
                                               spec=spec) if r.converged)
    assert 0.03 < ext.thetas[0] < 0.2
    assert ext.pressure <= flat - 1e-4


def test_stationarity_analytic_quadratic():
    def pressure(a):
        return -(a.m - 1.0) ** 2

    grad = stationarity_check(pressure, RsbAnsatz(k=0, m=1.0, qs=(0.5,)))
    assert grad <= 2e-10


def test_stationarity_at_solved_point():
    params = SkParams(beta=1.6, j0=0.3, j=1.0)
    rep = solve_model("sk", params, k=0)[0]
    fn = lambda a: sk_pressure_rs(params, a.m, a.qs[0]).pressure
    assert stationarity_check(fn, rep.ansatz) <= 1e-5
    off = RsbAnsatz(k=0, m=rep.ansatz.m, qs=(rep.ansatz.qs[0] + 0.1,))
    assert stationarity_check(fn, off) > 1e-3


def test_default_starts_cover_both_branches():
    starts = default_starts("sk", SkParams(beta=1.2, j0=0.5, j=1.0), 0)
    ms = sorted(abs(s.m) for s in starts)
    assert ms[0] == pytest.approx(0.0)
    assert ms[-1] == pytest.approx(0.999)
    for s in starts:
        assert all(0.0 < q < 1.0 for q in s.qs)


def test_default_starts_depth_matches():
    starts = default_starts("sk", SkParams(beta=1.5, j0=0.0, j=1.0), 2,
                            thetas=(0.3, 0.6))
    for s in starts:
        assert s.k == 2
        assert len(s.qs) == 3
        assert s.thetas == (0.3, 0.6)


def test_single_start_override():
    params = SkParams(beta=1.6, j0=0.0, j=1.0)
    start = RsbAnsatz(k=0, m=0.0, qs=(0.2,))
    reps = solve_model("sk", params, k=0, starts=[start])
    assert len(reps) == 1
    assert reps[0].converged


def _solve_point(model, beta, thetas):
    return next(p for p in SOLVE_POINTS
                if p[0] == model and p[1].beta == beta and p[2] == thetas)


def _public_map(model, params, spec):
    mapping = sk_sce_krsb if model == "sk" else hop_sce_krsb
    return lambda a: mapping(params, a, spec)


# the slow pairwise point, a pattern point and a two-level pairwise point
# on the coarse grid the benchmark uses for k=2
_PATH_POINTS = [
    _solve_point("sk", 1.1, (0.5,)),
    _solve_point("hopfield", 1.2, (0.3,)),
    _solve_point("sk", 2.0, (0.3, 0.6))[:3] + (24,),
]


@pytest.mark.parametrize("model,params,thetas,nodes", _PATH_POINTS)
def test_solve_path_matches_public_map_iteration(model, params, thetas,
                                                 nodes):
    # solve_model iterates flat vectors on a per-start plan; it must take
    # the trajectory of the public ansatz map under damped_fixed_point
    spec = QuadratureSpec(nodes_per_level=nodes)
    for start in default_starts(model, params, len(thetas), thetas):
        got = solve_model(model, params, len(thetas), thetas, spec,
                          starts=[start])[0]
        want = damped_fixed_point(_public_map(model, params, spec), start)
        assert got.converged and want.converged
        assert got.iterations == want.iterations
        assert got.residual_history == pytest.approx(
            want.residual_history, abs=1e-12)
        assert got.ansatz.m == pytest.approx(want.ansatz.m, abs=1e-12)
        assert got.ansatz.qs == pytest.approx(want.ansatz.qs, abs=1e-12)


def test_solve_path_reports_divergence_like_public_map():
    # the first damped step drops the outer denominator below zero
    params = _solve_point("hopfield", 1.6, (0.5,))[1]
    spec = QuadratureSpec(nodes_per_level=24)
    start = RsbAnsatz(k=1, m=0.0, qs=(0.0, 1.0), thetas=(0.5,))
    got = solve_model("hopfield", params, 1, (0.5,), spec, starts=[start])[0]
    want = damped_fixed_point(_public_map("hopfield", params, spec), start)
    assert not got.converged and not want.converged
    assert got.pressure is None
    assert got.error.startswith("SusceptibilityDivergence: ")
    assert got.error == want.error
    assert got.iterations == want.iterations > 1


def test_solve_report_names_its_start():
    # cold start -> m = 0 branch, aligned start -> retrieval branch
    params = HopfieldParams(beta=1.5, alpha=0.02)
    spec = QuadratureSpec(nodes_per_level=40)
    hot, cold = default_starts("hopfield", params, 0)
    forward = solve_model("hopfield", params, 0, spec=spec, starts=[hot, cold])
    backward = solve_model("hopfield", params, 0, spec=spec,
                           starts=[cold, hot])
    assert sorted(r.start for r in forward) == [0, 1]
    for rep in forward:
        alone = solve_model("hopfield", params, 0, spec=spec,
                            starts=[(hot, cold)[rep.start]])[0]
        assert rep.ansatz == alone.ansatz
        twin = next(r for r in backward if r.ansatz == rep.ansatz)
        assert twin.start == 1 - rep.start
    assert damped_fixed_point(np.cos, 0.3).start is None


@pytest.mark.parametrize("k,nodes", [(0, 80), (1, 80), (2, 80), (3, 32)])
def test_solve_report_names_its_node_count(k, nodes):
    # the default budget of 2^20 grid points fits 80 nodes up to k=2
    thetas = tuple(np.linspace(0.3, 0.7, k))
    reports = solve_model("sk", SkParams(beta=1.2, j0=0.3), k, thetas,
                          options=SolverOptions(max_iter=1))
    assert [r.nodes for r in reports] == [nodes] * len(reports) != []
    assert damped_fixed_point(np.cos, 0.3).nodes is None


# (model, points, exponents, nodes): lanes of one grid that leave the
# block at very different iterations or fail
_GRID_CASES = {
    # lanes need 52 to 678 iterations
    "sk_k0_row": ("sk", [SkParams(beta=1.9, j0=j, j=1.0)
                         for j in np.linspace(0.0, 1.4, 8)], (), 80),
    # a zero-load lane, a cold start that diverges at its second step,
    # and at step 301 one of two running lanes halves its damping
    "hopfield_k0_row": ("hopfield", [HopfieldParams(beta=2.0, alpha=a)
                                     for a in np.linspace(0.0, 0.14, 8)]
                        + [HopfieldParams(beta=2.3, alpha=0.06)], (), 80),
    # both starts reach one branch 1.1e-9 apart with pressures equal to
    # the last bit, so which one is reported rides on every bit
    "hopfield_k1_tie": ("hopfield", [HopfieldParams(beta=1.4, alpha=0.06),
                                     HopfieldParams(beta=1.2, alpha=0.1)],
                        (0.6,), 80),
    "sk_k2": ("sk", [SkParams(beta=2.0, j0=0.3, j=1.0)], (0.3, 0.6), 24),
}


@pytest.mark.parametrize("case", sorted(_GRID_CASES))
def test_grid_lanes_match_separate_solves(case):
    # repr keeps every bit of every field and compares nan equal
    model, points, thetas, nodes = _GRID_CASES[case]
    spec = QuadratureSpec(nodes_per_level=nodes)
    k = len(thetas)
    grid = solve_grid(model, points, k, thetas, spec)
    assert len(grid) == len(points)
    for params, reports in zip(points, grid):
        single = solve_model(model, params, k, thetas, spec)
        assert list(map(repr, reports)) == list(map(repr, single))
        starts = default_starts(model, params, k, thetas)
        for i, start in enumerate(starts):
            alone = solve_model(model, params, k, thetas, spec,
                                starts=[start])[0]
            kept = [r for r in reports if r.start == i]
            if kept:
                assert repr(kept[0]) == repr(replace(alone, start=i))
            else:
                # dropped as a duplicate of a branch that was kept
                assert alone.converged
                assert any(max(abs(alone.ansatz.m - r.ansatz.m),
                               *(abs(a - b) for a, b in zip(alone.ansatz.qs,
                                                            r.ansatz.qs)))
                           < 1e-7 for r in reports if r.converged)


def test_grid_blocks_respect_tensor_budget(monkeypatch):
    points = [SkParams(beta=1.9, j0=j, j=1.0) for j in np.linspace(0, 1.4, 8)]
    want = solve_grid("sk", points)
    sizes = []
    kernel = rsbsolve.sk.plan_moments

    def spy(plan, offset, coeffs):
        sizes.append(len(offset))
        return kernel(plan, offset, coeffs)

    monkeypatch.setattr(rsbsolve.sk, "plan_moments", spy)
    # three lanes of the 80-point k=0 grid per block
    tight = QuadratureSpec(max_tensor_points=3 * 80 + 79)
    got = solve_grid("sk", points, spec=tight)
    assert max(sizes) == 3
    assert list(map(repr, got)) == list(map(repr, want))


def test_grid_propagates_non_finite_field():
    # each bad point's field coefficient overflows, so its lanes cannot
    # integrate: they fail alone, and the good point's reports are bit
    # for bit those of a solve without it
    for model, sce, good, bad in (
            ("sk", sk_sce_krsb, SkParams(beta=1.0),
             SkParams(beta=1e308, j=10.0)),
            ("hopfield", hop_sce_krsb, HopfieldParams(beta=1.2, alpha=0.05),
             HopfieldParams(beta=1e308, alpha=10.0))):
        got = solve_grid(model, [good, bad])
        assert list(map(repr, got[0])) == \
            list(map(repr, solve_model(model, good)))
        assert got[1] and all(
            not r.converged and r.pressure is None
            and r.error.startswith("NonFiniteIntegrand: ") for r in got[1])
        # a single map application still raises
        with pytest.raises(NonFiniteIntegrand):
            sce(bad, RsbAnsatz(k=0, m=0.5, qs=(1.0,)))


def test_grid_of_no_points_is_empty():
    assert solve_grid("sk", []) == []
