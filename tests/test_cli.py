"""Command-line surface: JSON/CSV contracts, exit codes, reproducibility."""

import json
import math

import pytest
from click.testing import CliRunner

from rsbsolve.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, **kw):
    return runner.invoke(main, args, catch_exceptions=False, **kw)


def test_solve_emits_sorted_json(runner):
    res = invoke(runner, ["solve", "--model", "sk", "--beta", "1.2",
                          "--j0", "0", "--j", "1"])
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert isinstance(payload, list) and payload
    branch = payload[0]
    assert list(branch) == sorted(branch)
    assert branch["converged"] is True
    assert branch["ansatz"]["k"] == 0


def test_solve_reports_empty_failure(runner):
    res = runner.invoke(main, ["solve", "--model", "sk", "--beta", "1.6",
                               "--j0", "0.3", "--max-iter", "1"])
    assert res.exit_code == 2
    assert json.loads(res.stdout) == []


def test_missing_required_option_is_usage_error(runner):
    res = runner.invoke(main, ["solve", "--model", "sk"])
    assert res.exit_code == 1


def test_theta_count_mismatch_is_usage_error(runner):
    res = runner.invoke(main, ["solve", "--model", "sk", "--beta", "1.2",
                               "--k", "2", "--theta", "0.4"])
    assert res.exit_code == 1


DEEP_THETAS = [a for i in range(20) for a in ("--theta", "%g" % (0.04 * (i + 1)))]


@pytest.mark.parametrize("args", [
    # a grid point outside the parameter domain
    ["sweep", "--model", "sk", "--beta", "1", "--sweep", "beta=-1:1:3"],
    # an exponent below the floor, rejected by the solver
    ["sweep", "--model", "sk", "--beta", "1", "--k", "1", "--theta", "0.001",
     "--sweep", "beta=0.5:1:2"],
    # twenty levels do not fit the default budget even at two nodes
    ["solve", "--model", "sk", "--beta", "1", "--k", "20"] + DEEP_THETAS,
    ["sweep", "--model", "sk", "--beta", "1", "--k", "20"] + DEEP_THETAS
    + ["--sweep", "beta=0.5:1:2"],
], ids=["sweep_bad_point", "sweep_bad_theta", "solve_budget", "sweep_budget"])
def test_library_errors_are_usage_errors(runner, args):
    res = invoke(runner, args)
    assert res.exit_code == 1
    assert "Error:" in res.output
    assert res.stdout == ""


def test_unknown_suite_is_usage_error(runner):
    res = runner.invoke(main, ["verify", "--suite", "bogus"])
    assert res.exit_code == 1


def test_zero_load_solve_matches_one_body_form(runner):
    res = invoke(runner, ["solve", "--model", "hopfield", "--beta", "1.4",
                          "--alpha", "0"])
    assert res.exit_code == 0
    branches = json.loads(res.stdout)
    magnetized = max(b["ansatz"]["m"] for b in branches)
    want_m = 0.5
    for _ in range(300):
        want_m = math.tanh(1.4 * want_m)
    assert magnetized == pytest.approx(want_m, abs=1e-8)
    best = max(b["pressure"] for b in branches)
    want = (math.log(2.0) + math.log(math.cosh(1.4 * want_m))
            - 0.7 * want_m * want_m)
    assert best == pytest.approx(want, abs=1e-10)


def test_sweep_zero_load_branch_structure(runner):
    res = invoke(runner, ["sweep", "--model", "hopfield", "--beta", "1",
                          "--alpha", "0", "--sweep", "beta=0.5:1.5:11",
                          "--nodes", "24"])
    assert res.exit_code == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "beta,alpha,branch,m,q1,p1,pressure,residual,converged"
    rows = [l.split(",") for l in lines[1:]]
    betas = sorted({float(r[0]) for r in rows})
    assert len(betas) == 11
    assert betas[0] == pytest.approx(0.5) and betas[-1] == pytest.approx(1.5)
    for r in rows:
        assert r[-1] == "true"
        # a magnetized branch may appear only past the one-body transition
        if abs(float(r[3])) > 1e-6:
            assert float(r[0]) > 1.0


def test_sweep_rows_row_major_and_round_trip(runner):
    res = invoke(runner, ["sweep", "--model", "sk", "--beta", "1.2",
                          "--j0", "0.4", "--sweep", "beta=1.1:1.3:2",
                          "--sweep", "j0=0.2:0.4:2", "--nodes", "24"])
    lines = res.stdout.strip().split("\n")
    rows = [l.split(",") for l in lines[1:]]
    pairs = [(float(r[0]), float(r[1])) for r in rows]
    assert pairs == sorted(pairs)
    for r in rows:
        for i, cell in enumerate(r[:-1]):
            if i == 3:
                assert cell == str(int(cell))
                continue
            # repr round-trip: parsing the cell recovers the exact float
            assert repr(float(cell)) == cell
    assert "\r" not in res.stdout
    assert res.stdout.endswith("\n")


def test_sweep_unconverged_rows_are_blank(runner):
    res = invoke(runner, ["sweep", "--model", "sk", "--beta", "1",
                          "--j0", "0", "--sweep", "beta=0.9:1.1:5",
                          "--nodes", "24"])
    assert res.exit_code == 0
    lines = res.stdout.strip().split("\n")
    false_rows = [l.split(",") for l in lines[1:] if l.endswith("false")]
    assert false_rows
    for r in false_rows:
        assert r[3:-1] == [""] * (len(r) - 4)
    assert "nan" not in res.stdout.lower()


def test_sweep_single_point_matches_solve(runner):
    solve = json.loads(invoke(runner, [
        "solve", "--model", "sk", "--beta", "1.6", "--j0", "0.3",
        "--nodes", "32"]).stdout)
    sweep = invoke(runner, [
        "sweep", "--model", "sk", "--beta", "1.6", "--j0", "0.3",
        "--sweep", "beta=1.6:1.6:1", "--nodes", "32"]).stdout
    row = sweep.strip().split("\n")[1].split(",")
    assert float(row[4]) == solve[0]["ansatz"]["m"]
    assert float(row[5]) == solve[0]["ansatz"]["qs"][0]
    assert float(row[6]) == solve[0]["pressure"]


def test_nodes_env_fallback(runner):
    args = ["solve", "--model", "sk", "--beta", "1.4", "--j0", "0.2"]
    via_env = invoke(runner, args, env={"RSB_NODES": "24"}).stdout
    via_flag = invoke(runner, args + ["--nodes", "24"]).stdout
    coarse = invoke(runner, args + ["--nodes", "12"]).stdout
    assert via_env == via_flag
    assert coarse != via_flag


def test_verify_row_format_and_exit(runner):
    res = invoke(runner, ["verify", "--suite", "collapse"])
    assert res.exit_code == 0
    lines = res.stdout.strip().split("\n")
    assert lines[-1].endswith("checks passed")
    assert lines[0].split() == ["check", "measured", "bound", "status"]
    for line in lines[1:-1]:
        assert line.endswith(" PASS")
        parts = line.split()
        float(parts[-3]), float(parts[-2])


def test_verify_enumeration_suite_small(runner):
    res = invoke(runner, ["verify", "--suite", "enumeration", "--n", "8",
                          "--samples", "20", "--seed", "3"])
    assert res.exit_code == 0
    again = invoke(runner, ["verify", "--suite", "enumeration", "--n", "8",
                            "--samples", "20", "--seed", "3"])
    assert res.stdout == again.stdout


def test_verify_stationarity_floors_nodes(runner):
    # the suite's 1e-5 bound is calibrated at 80 nodes, so a coarser
    # --nodes must not change its verdict or its table
    coarse = invoke(runner, ["verify", "--suite", "stationarity",
                             "--nodes", "40"], env={"RSB_NODES": None})
    default = invoke(runner, ["verify", "--suite", "stationarity"],
                     env={"RSB_NODES": None})
    assert coarse.exit_code == 0
    assert coarse.stdout_bytes == default.stdout_bytes
