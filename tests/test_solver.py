"""Damped iteration, projection, exponent search, stationarity checks."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

import rsbsolve.sk
import rsbsolve.solver
from rsbsolve import (
    BracketViolation,
    HopfieldParams,
    NonFiniteIntegrand,
    QuadratureSpec,
    RangeViolation,
    RsbAnsatz,
    ShapeMismatch,
    SkParams,
    SolverOptions,
    damped_fixed_point,
    default_starts,
    extremize_theta,
    hop_p_closed_form,
    hop_pressure_krsb,
    hop_sce_krsb,
    isotonic_nondecreasing,
    sk_pressure_krsb,
    sk_pressure_rs,
    sk_sce_krsb,
    solve_grid,
    solve_model,
    stationarity_check,
)
from rsbsolve.cli import main as cli_main
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
    ext = extremize_theta("sk", params, 1, spec=spec, tol=1e-2)
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
    ext = extremize_theta("hopfield", params, 1, spec=spec, tol=1e-2)
    flat = max(r.pressure for r in solve_model("hopfield", params, 0,
                                               spec=spec) if r.converged)
    assert 0.03 < ext.thetas[0] < 0.2
    assert ext.pressure <= flat - 1e-4


PAIRWISE = SkParams(beta=1.4, j0=0.0, j=1.0)


def _envelope_gradient(model, params, rep, spec):
    """dP/dtheta at the branch's own (m, q), by the public pressure."""
    pressure = {"sk": sk_pressure_krsb, "hopfield": hop_pressure_krsb}[model]
    return rsbsolve.solver._point_gradient(
        lambda th: pressure(params, replace(rep.ansatz, thetas=tuple(th),
                                            ps=None), spec).pressure,
        np.array(rep.ansatz.thetas), 1e-5)


def _counted(monkeypatch):
    """The exponents of every ``solve_model`` call the search makes."""
    calls = []
    solve = rsbsolve.solver.solve_model

    def spy(*args, **kwargs):
        calls.append(args[3])
        return solve(*args, **kwargs)

    monkeypatch.setattr(rsbsolve.solver, "solve_model", spy)
    return calls


@pytest.mark.parametrize("theta", [0.15, 0.35])
def test_envelope_gradient_is_the_solved_derivative(theta):
    # the pressure is stationary in (m, q) at a fixed point, so its
    # partial derivative there equals the re-solved total derivative
    spec = QuadratureSpec(nodes_per_level=40)

    def solved(t):
        return solve_model("sk", PAIRWISE, 1, (t,), spec)[0]

    h = 1e-4
    total = (solved(theta + h).pressure - solved(theta - h).pressure) / (2 * h)
    partial = _envelope_gradient("sk", PAIRWISE, solved(theta), spec)
    assert abs(partial[0] - total) <= 1e-9
    assert abs(total) > 1e-4


def test_exponent_search_one_level_optimum(monkeypatch):
    calls = _counted(monkeypatch)
    ext = extremize_theta("sk", PAIRWISE, 1,
                          spec=QuadratureSpec(nodes_per_level=40))
    assert ext.thetas[0] == pytest.approx(0.23462, abs=2e-4)
    assert ext.pressure == pytest.approx(1.1740137155, abs=1e-9)
    assert len(calls) <= 12


@pytest.fixture(scope="module")
def two_levels():
    """The depth-2 search on 24 nodes and the solves it made."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _counted(monkeypatch)
        ext = extremize_theta("sk", PAIRWISE, 2,
                              spec=QuadratureSpec(nodes_per_level=24))
    return ext, calls


def test_exponent_search_two_levels_optimum(two_levels):
    # coordinate sweeps stopped 4.9e-8 above this minimum, at
    # theta = (0.1651, 0.2953), where dP/dtheta_1 = 4.9e-6
    ext, _ = two_levels
    assert ext.thetas == pytest.approx((0.1441, 0.2864), abs=1e-3)
    assert ext.pressure == pytest.approx(1.1740119419, abs=1e-9)
    grad = _envelope_gradient("sk", PAIRWISE, ext.report,
                              QuadratureSpec(nodes_per_level=24))
    assert np.abs(grad).max() <= 1e-7
    assert ext.degenerate == (False, False)
    assert all(c > 0.0 for c in ext.curvature)


def test_exponent_search_two_levels_cost(two_levels):
    _, calls = two_levels
    assert len(calls) <= 20


def test_optimized_pressure_falls_with_depth(two_levels):
    # each level is a tighter Guerra bound on the same 24-node rule
    spec = QuadratureSpec(nodes_per_level=24)
    flat = max(r.pressure for r in solve_model("sk", PAIRWISE, 0, spec=spec)
               if r.converged)
    one = extremize_theta("sk", PAIRWISE, 1, spec=spec).pressure
    assert flat > one > two_levels[0].pressure


def test_envelope_gradient_brackets_pattern_optimum():
    spec = QuadratureSpec(nodes_per_level=40)
    params = HopfieldParams(beta=1.6, alpha=0.08)
    grads = [_envelope_gradient(
        "hopfield", params,
        solve_model("hopfield", params, 1, (t,), spec)[0], spec)[0]
        for t in (0.05, 0.07)]
    assert grads == pytest.approx([-1.1e-3, 3.1e-4], rel=0.05)
    ext = extremize_theta("hopfield", params, 1, spec=spec)
    assert 0.05 < ext.thetas[0] < 0.07


def test_exponent_search_rejects_empty_brackets():
    with pytest.raises(BracketViolation):
        extremize_theta("sk", PAIRWISE, 0)
    with pytest.raises(BracketViolation):
        extremize_theta("sk", PAIRWISE, 1, thetas0=(0.995,))
    with pytest.raises(BracketViolation):
        extremize_theta("sk", PAIRWISE, 2, thetas0=(0.5,))
    # 99 exponents 0.01 apart do not fit into [0.01, 0.99]
    with pytest.raises(BracketViolation):
        extremize_theta("sk", PAIRWISE, 99)
    # tol=0 used to return the unmoved start with a NaN curvature, and a
    # negative tol ran as if it were positive
    for tol in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(BracketViolation, match="tol must be finite"):
            extremize_theta("sk", PAIRWISE, 1, spec=FAST, tol=tol)


def test_damped_fixed_point_empty_start_is_typed():
    # used to raise numpy's bare ValueError from the residual reduction
    with pytest.raises(RangeViolation, match="at least one entry"):
        damped_fixed_point(lambda x: x, [])


def test_damped_fixed_point_names_a_width_change():
    # the pattern map slaves the conjugates (its image has ps=None), so a
    # start that carries them would change the flat width
    params = HopfieldParams(beta=1.2, alpha=0.05)
    bare = RsbAnsatz(k=0, m=0.5, qs=(0.5,))
    start = replace(bare, ps=hop_p_closed_form(params, bare))
    with pytest.raises(ShapeMismatch, match="takes 3 flat entries to 2"):
        damped_fixed_point(lambda a: hop_sce_krsb(params, a), start)
    assert damped_fixed_point(lambda a: hop_sce_krsb(params, a),
                              bare).converged


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


def _linspace_starts(model, params, k):
    """The plateaus of the default starts as ``np.linspace`` spaced them
    under a plain cap of 0.97, which the pattern-model floor passes at
    beta > 50/3."""
    floor = 0.0
    if model == "hopfield" and params.beta > 0.5:
        floor = 1.0 - 0.5 / params.beta
    return [np.linspace(max(0.55, floor), min(max(0.9, floor + 0.1), 0.97),
                        k + 1),
            np.linspace(max(0.01, floor), min(max(0.15, floor + 0.1), 0.97),
                        k + 1)]


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_default_starts_keep_their_bits_where_they_were_ordered(k):
    thetas = tuple(np.linspace(0.2, 0.8, k))
    points = [("sk", SkParams(beta=b)) for b in (0.3, 1.0, 2.5, 30.0)] + [
        ("hopfield", HopfieldParams(beta=float(b), alpha=0.05))
        for b in np.r_[np.linspace(0.2, 50.0 / 3.0, 41), 17.0, 20.0]]
    compared = 0
    for model, params in points:
        starts = default_starts(model, params, k, thetas)
        for start, want in zip(starts, _linspace_starts(model, params, k)):
            if k == 0 or (np.diff(want) > 0.0).all():
                assert np.array(start.qs).tobytes() == want.tobytes()
                compared += 1
    assert compared >= 2 * 45 if k == 0 else compared >= 2 * 40


@pytest.mark.parametrize("beta", [20.0, 40.0])
@pytest.mark.parametrize("k", [1, 2])
def test_cold_pattern_model_starts_are_ordered(beta, k):
    # the floor 1 - 0.5/beta passes 0.97 above beta = 50/3: the starts
    # stay non-decreasing, within [floor, 1] and distinct, and solve
    params = HopfieldParams(beta=beta, alpha=0.05)
    floor = 1.0 - 0.5 / beta
    thetas = tuple(np.linspace(0.3, 0.6, k))
    for start in default_starts("hopfield", params, k, thetas):
        assert floor <= start.qs[0] and start.qs[-1] <= 1.0
        assert all(lo < hi for lo, hi in zip(start.qs, start.qs[1:]))
    reports = solve_model("hopfield", params, k, thetas)
    assert reports[0].converged and reports[0].ansatz.m > 0.99


def test_single_start_override():
    params = SkParams(beta=1.6, j0=0.0, j=1.0)
    start = RsbAnsatz(k=0, m=0.0, qs=(0.2,))
    reps = solve_model("sk", params, k=0, starts=[start])
    assert len(reps) == 1
    assert reps[0].converged


def test_no_starts_is_refused():
    # an empty start list used to solve nothing and report no branch
    params = SkParams(beta=1.4, j0=0.0, j=1.0)
    with pytest.raises(RangeViolation, match="need at least one start"):
        solve_model("sk", params, starts=[])
    with pytest.raises(RangeViolation, match="need at least one start"):
        solve_grid("sk", [params, params], starts=[])


def test_start_of_another_shape_is_refused():
    # a solve runs at the depth and exponents it is asked for: a start
    # of another depth or other exponents is not solved there instead
    params = SkParams(beta=1.4, j0=0.0, j=1.0)
    for start in (RsbAnsatz(k=0, m=0.0, qs=(0.2,)),
                  RsbAnsatz(k=1, m=0.0, qs=(0.1, 0.3), thetas=(0.3,))):
        want = ("a start at depth %d with exponents %r in a solve at depth 1"
                " with exponents (0.5,)" % (start.k, start.thetas))
        with pytest.raises(ShapeMismatch) as one:
            solve_model("sk", params, 1, (0.5,), starts=[start])
        with pytest.raises(ShapeMismatch) as grid:
            solve_grid("sk", [params, params], 1, (0.5,), starts=[start])
        assert str(one.value) == str(grid.value) == want


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


def test_non_stationary_branch_is_flagged():
    # at beta=4, alpha=0.1 on 80 nodes the field scale outruns the rule:
    # the cold start converges to a glass point whose pressure gradient
    # is 1.53, while the retrieval branch is stationary to 2.6e-8
    reports = solve_model("hopfield", HopfieldParams(beta=4.0, alpha=0.1))
    by_start = {r.start: r for r in reports}
    assert all(r.converged for r in reports) and set(by_start) == {0, 1}
    glass, retrieval = by_start[1], by_start[0]
    assert abs(glass.ansatz.m) < 1e-12 and glass.stationarity > 1.0
    assert glass.stationary is False
    assert retrieval.stationarity < 1e-7 and retrieval.stationary is True
    failed = solve_model("sk", SkParams(beta=1.6, j0=0.3),
                         options=SolverOptions(max_iter=1))
    assert [r.stationary for r in failed] == [None] * len(failed)


def test_unconverged_lanes_carry_no_pressure():
    # lanes stopped by the iteration cap are not branches: no pressure,
    # no stationarity, and every converged branch sorts before them
    params = SkParams(beta=1.4, j0=0.0, j=1.0)
    capped = solve_model("sk", params, options=SolverOptions(max_iter=5))
    assert [r.converged for r in capped] == [False, False]
    assert all(r.pressure is None and r.stationarity is None
               and r.stationary is None and r.error is None for r in capped)
    branch = solve_model("sk", params)[0]
    mixed = solve_model("sk", params, starts=[capped[0].ansatz, branch.ansatz],
                        options=SolverOptions(max_iter=5))
    assert [(r.start, r.converged) for r in mixed] == [(1, True), (0, False)]
    assert mixed[0].pressure == pytest.approx(branch.pressure, abs=1e-12)
    assert mixed[1].pressure is None


def test_one_branch_despite_far_apart_conjugates():
    # both starts end on the glass branch 2.6e-11 apart in q, but its
    # conjugate p ~ 99.8 puts them 1.7e-7 apart in p: only the iterated
    # (m, qs) decide whether two branches are one
    reports = solve_model("hopfield", HopfieldParams(beta=10.0, alpha=0.13),
                          spec=QuadratureSpec(nodes_per_level=1024))
    assert [r.converged for r in reports] == [True]


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


# SHA-256 of repr(solve_grid(...)) per case, recorded at 65358f5: the
# lanes agreeing with each other does not show a change that moves every
# lane alike, so every bit of every report is pinned across versions.
# hopfield_k0_row was re-recorded when zero-load lanes moved onto the
# kernel at zero field coefficients: its alpha=0 point's aligned m and q
# moved by 1 and 2 ulp and its pressures became np.float64; the other eight
# points' reports kept every bit
_GRID_GOLDENS = {
    "hopfield_k0_row":
        "34f396a0e0372c03876f262b197d1c00f5eb0bb04ab38c4c0578fa5a9bb033c2",
    "hopfield_k1_tie":
        "b5da9c8b88400477de67c541bea1ee03ce52dcf14d2d3ec1c6f498f2c5588a17",
    "sk_k0_row":
        "c1de3bb3ef5eeeb88ec3bdec09de1a451540260baf6ae5b274fdbb2f239c9b4b",
    "sk_k2":
        "4ef2e87b3ea1a30833c1aa41027c52f550fd2988a221ea058c9d7d9179cc41dd",
}


@pytest.mark.parametrize("case", sorted(_GRID_CASES))
def test_grid_reports_match_recorded_bits(case):
    model, points, thetas, nodes = _GRID_CASES[case]
    grid = solve_grid(model, points, len(thetas), thetas,
                      QuadratureSpec(nodes_per_level=nodes))
    digest = hashlib.sha256(repr(grid).encode()).hexdigest()
    assert digest == _GRID_GOLDENS[case]


# two rows of the k=0 CLI sweep benchmark at its default seed (the slow
# pairwise row, whose last lane runs 738 iterations, and the coldest
# pattern-model row) and the SHA-256 of their stdout, recorded at 65358f5
_SWEEP_GOLDENS = [
    (("sk", "1.8929795895237467", "j0=0.0:1.4064228032236323:8"),
     "844e75ac673b7a12c5877f2ce2167c861bfc0c0675e5b80f8ab553c7ad265f2e"),
    (("hopfield", "2.2926565726908237",
      "alpha=0.010037338404536092:0.140122779692238:8"),
     "f1bef86f3545fba5a3a2294e8d8e6c18a3903c79e8d7c6c003719d7c9ce5c221"),
]


@pytest.mark.parametrize("row,digest", _SWEEP_GOLDENS,
                         ids=[row[0] for row, _ in _SWEEP_GOLDENS])
def test_sweep_stdout_matches_recorded_bits(row, digest):
    model, beta, axis = row
    res = CliRunner().invoke(cli_main, [
        "sweep", "--model", model, "--beta", beta, "--sweep", axis,
        "--nodes", "80"], catch_exceptions=False)
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest


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


def _damped_transcription(f, x, damping, tol=1e-10, max_iter=20000):
    """The damped loop of one scalar lane in plain floats: the damping
    halves after 300 iterations without a 1 % better residual, down to
    1/32 of its start."""
    gamma, best, since, history = damping, math.inf, 0, []
    for it in range(1, max_iter + 1):
        fx = f(x)
        residual = abs(fx - x)
        history.append(residual)
        if not math.isfinite(residual) or residual <= tol:
            return x, it, history
        if residual < 0.99 * best:
            best, since = residual, 0
        else:
            since += 1
        if since >= 300 and gamma > damping / 32.0:
            gamma, since = gamma * 0.5, 0
        x = (1.0 - gamma) * x + gamma * fx
    return x, max_iter, history


@pytest.mark.parametrize("f,x0,damping,max_iter", [
    (lambda x: 1.0 - x, 0.2, 1.0, 20000),             # one halving
    (lambda x: 3.99 * x * (1.0 - x), 0.3, 1.0, 4000),  # chaotic at first
    (lambda x: -1.9 * x + 0.3, 0.2, 0.9, 3000),        # diverges until halved
])
def test_damping_halves_as_the_one_lane_loop(f, x0, damping, max_iter):
    x, iterations, history = _damped_transcription(f, x0, damping,
                                                   max_iter=max_iter)
    rep = damped_fixed_point(f, x0, SolverOptions(damping=damping,
                                                  max_iter=max_iter))
    assert rep.iterations == iterations
    assert rep.residual_history == tuple(history)
    assert np.float64(rep.ansatz).tobytes() == np.float64(x).tobytes()


# one block of scalar lanes: one halving after two others have left, a
# NaN at the fifth step, chaotic at first, fast, a residual that never
# improves (down to the damping floor, then the cap), and a divergence
# that one halving turns round
_BLOCK_LANES = [
    (lambda x: 1.0 - x, 0.2),
    (lambda x: x - 0.15 if x > 0.0 else math.nan, 0.5),
    (lambda x: 3.99 * x * (1.0 - x), 0.3),
    (lambda x: 0.5 * x + 0.1, 0.9),
    (lambda x: x + 1.0, 0.0),
    (lambda x: -1.9 * x + 0.3, 0.2),
]


def test_block_lanes_damp_as_the_one_lane_loop():
    maps = [f for f, _ in _BLOCK_LANES]

    def step(lanes, x):
        return np.array([[maps[i](v)] for i, v in
                         zip(lanes.tolist(), x[:, 0].tolist())]), {}

    opts = SolverOptions(damping=1.0, max_iter=2000)
    reps = rsbsolve.solver._iterate(
        step, np.array([[x0] for _, x0 in _BLOCK_LANES]), opts)
    assert [r.iterations for r in reps] == [302, 5, 436, 33, 2000, 570]
    for rep, (f, x0) in zip(reps, _BLOCK_LANES):
        x, iterations, history = _damped_transcription(f, x0, 1.0,
                                                       max_iter=2000)
        assert rep.iterations == iterations
        assert np.array(rep.residual_history).tobytes() == \
            np.array(history).tobytes()
        assert rep.ansatz.tobytes() == np.array([x]).tobytes()


def _admissible_rows(rng, n, width):
    """Rows [m, q_1..] with m in [-1, 1] and non-decreasing q in [0, 1];
    about a tenth of the entries sit on a bound, so plateaus tie too."""
    x = rng.uniform(-1.0, 1.0, (n, width))
    x[rng.random((n, width)) < 0.1] = 1.0
    x[rng.random(n) < 0.1, 0] = -1.0
    x[:, 1:] = np.abs(x[:, 1:])
    x[:, 1:][rng.random((n, width - 1)) < 0.1] = 0.0
    x[:, 1:] = np.sort(x[:, 1:], axis=1)
    return x


@pytest.mark.parametrize("damping", [1.0, 0.5, 0.3, 0.77, 0.1])
def test_damped_step_keeps_rows_admissible(damping):
    # why the damped loop projects nothing: rounding is monotone, so a
    # damped step between admissible rows is admissible to the last bit
    rng = np.random.default_rng(17)
    for halving in range(6):
        gamma = damping * 0.5 ** halving
        x, fx = (_admissible_rows(rng, 20000, 4) for _ in range(2))
        y = (1.0 - gamma) * x + gamma * fx
        assert (np.abs(y[:, 0]) <= 1.0).all()
        assert (y[:, 1] >= 0.0).all() and (y[:, -1] <= 1.0).all()
        assert (np.diff(y[:, 1:], axis=1) >= 0.0).all()
