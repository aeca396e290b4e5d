"""Self-test of the benchmark's output checks.

For every workload one small item is run through the real program; its
output must pass the check, and deliberately wrong versions of it (a
perturbed pressure, an unconverged row, a non-stationary branch, a
shifted oracle value) must each be counted as a failed item.

    python3 perfbench/selftest.py       # exit code 0 when every case holds
"""

import sys

import package
from run import check_outputs
from workloads import DEFAULT_SEED, WORKLOADS

SEED = 11


def failed_items(wl, item, out, seed=SEED):
    """Failed executions when ``out`` is the only output of one pass."""
    passes = [(False, [(0, 0.0, 0.0, out, None)])]
    return check_outputs(wl, [item], passes, seed)[1]


def sweep_cases(wl, out):
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    col = {name: i for i, name in enumerate(header)}

    def edit(fn):
        rows = [line.split(",") for line in lines[1:]]
        fn(rows)
        return "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n"

    def shift(name, delta):
        def fn(rows):
            rows[0][col[name]] = repr(float(rows[0][col[name]]) + delta)
        return fn

    def unconverged(rows):
        point = rows[0][:col["branch"]]
        keep = [r for r in rows if r[:col["branch"]] != point]
        rows[:] = [point + [""] * (len(header) - len(point) - 1) + ["false"]] + keep

    return {"pressure+1e-6": edit(shift("pressure", 1e-6)),
            "m+1e-6": edit(shift("m", 1e-6)),
            "unconverged row": edit(unconverged),
            "missing row": edit(lambda rows: rows.pop()),
            "not a table": "Error: no such option\n"}


def solve_cases(out):
    conv, m, qs, p, stat = out[0]
    return {"pressure+1e-6": [(conv, m, qs, p + 1e-6, stat)] + out[1:],
            "q1+1e-3": [(conv, m, (qs[0] + 1e-3,) + qs[1:], p, stat)] + out[1:],
            "reported stationarity 1e-3": [(conv, m, qs, p, 1e-3)] + out[1:],
            "no converged branch": [(False,) + b[1:] for b in out]}


def finite_cases(label, out):
    if label == "enum_hop":
        return {"value+1e-9": (out[0] + 1e-9,) + out[1:]}
    if label == "metro_hop":
        return {"overlap 0.5": (0.5,) + out[1:]}
    if label == "hist_ferro":
        return {"mode at 0": out[:2] + (0.0,) + out[3:]}
    return {"identity off by 1e-6": out[:2] + (1e-6,) + out[3:]}


def main():
    rsb = package.load()
    problems = []

    def expect(name, case, got, want):
        status = "ok" if got == want else "WRONG"
        print("%-20s %-34s failed=%d (want %d) %s" % (name, case, got, want, status))
        if got != want:
            problems.append((name, case))

    sweep = WORKLOADS["rs_sweep"]
    item = sweep.items(SEED)[0]
    out = sweep.call(rsb, item)
    expect(sweep.name, "program output", failed_items(sweep, item, out), 0)
    for case, bad in sweep_cases(sweep, out).items():
        expect(sweep.name, case, failed_items(sweep, item, bad), 1)

    solve = WORKLOADS["rsb_solve"]
    item = next(i for i in solve.items(SEED) if i.label.startswith("hopfield_k1"))
    out = solve.call(rsb, item)
    expect(solve.name, "program output", failed_items(solve, item, out), 0)
    for case, bad in solve_cases(out).items():
        expect(solve.name, case, failed_items(solve, item, bad), 1)
    item0 = next(i for i in solve.items(DEFAULT_SEED) if i.label == item.label)
    pinned = solve.call(rsb, item0)
    expect(solve.name, "default seed, pinned", failed_items(
        solve, item0, pinned, DEFAULT_SEED), 0)
    off = [(c, m + 1e-8, qs, p, s) for c, m, qs, p, s in pinned]
    expect(solve.name, "default seed, m+1e-8", failed_items(
        solve, item0, off, DEFAULT_SEED), 1)

    land = WORKLOADS["pressure_landscape"]
    items = land.items(SEED)
    for prefix in ("sk_k1_p", "hopfield_k2_collapse"):
        item = next(i for i in items if i.label.startswith(prefix))
        out = land.call(rsb, item)
        expect(land.name, item.label, failed_items(land, item, out), 0)
        expect(land.name, item.label + " +1e-7",
               failed_items(land, item, out + 1e-7), 1)

    finite = WORKLOADS["finite_size"]
    for label in ("enum_hop", "metro_hop", "hist_ferro", "interp_hop_z"):
        item = next(i for i in finite.items(SEED) if i.label == label)
        out = finite.call(rsb, item)
        expect(finite.name, label, failed_items(finite, item, out), 0)
        for case, bad in finite_cases(label, out).items():
            expect(finite.name, "%s %s" % (label, case),
                   failed_items(finite, item, bad), 1)
    item0 = next(i for i in finite.items(DEFAULT_SEED) if i.label == "interp_sk_w")
    out = finite.call(rsb, item0)
    expect(finite.name, "default seed, pinned", failed_items(
        finite, item0, out, DEFAULT_SEED), 0)
    expect(finite.name, "default seed, last bit", failed_items(
        finite, item0, (out[0] * (1 + 2 ** -52),) + out[1:], DEFAULT_SEED), 1)

    passes = [(False, [(0, 0.0, 0.0, out, None)]),
              (False, [(0, 0.0, 0.0, (0.0,) + out[1:], None)])]
    attempted, failed, _, _ = check_outputs(finite, [item0], passes, DEFAULT_SEED)
    expect(finite.name, "output changed between passes", failed, 1)

    print("%d problems" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
