#!/usr/bin/env python3
"""Record a BENCH_<pr>.json: the benchmark on a parent commit and on this
checkout, in alternating pairs.

    python3 tools/bench.py --pr N                      # every workload
    python3 tools/bench.py --pr N --workloads pressure_landscape --repeats 10
    python3 tools/bench.py --pr N --workloads rs_sweep,finite_size \\
        --repeats 4 --merge --no-tier1

The parent (``--parent``, default ``HEAD``) is extracted with ``git
archive`` into a scratch directory; the change is the working tree of
the checkout this file sits in.  For each repeat and workload the tool
runs ``perfbench/run.py --trace 0`` once on each side, the parent first
on even repeats and the change first on odd ones, and reads the record
each run leaves in ``.perfbench-out/``.  The file gets, per workload and
side, every run's end-to-end metrics and ``failed_frac`` with their
medians and quartiles, and per metric the pairs in which the change was
better; at the top the git shas, the net line count of ``src/``, the
Tier-1 wall time of both sides and, always, the machine-independent
counts of one seed-0 pass of ``rs_sweep`` and ``rsb_solve`` per side:
map calls and lane-steps, counted in-process by a wrapper on
``rsbsolve.sk.plan_moments`` and ``rsbsolve.hopfield.plan_moments``
(every map application calls one of them once, with one row per
running lane).  Under ``layers`` it also keeps per-layer timings of each
side, run in alternating rounds: the median us of one block map
application of each model at k=0 on 80 nodes (1 and 16 lanes), k=1 on
80 nodes and k=2 on 24 nodes (2 lanes), and of one iteration of the
damped loop on a k=0 pairwise row of 16 lanes; and the median ns per
proposal of a 20-sweep ``metropolis_run`` of each model (pattern
model at beta=2, alpha=0.01 on 600 sites; pairwise at beta=0.5 on 200,
at beta=0 on 256, where every proposal is accepted, and at beta=2,
j0=3, j=0 on 100, where almost none is; ``perfbench`` times whole runs
only).  Each timed batch is scaled to the reference speed by the
``perfbench/calibrate.py`` calibrations before and after it, as
``perfbench`` scales its items: on a shared machine the same code runs
up to twice as slow for seconds at a time.  ``--merge`` keeps the
workloads of an existing file that this run does not measure.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def _archive(rev, into):
    """The tree of ``rev`` under ``into``/parent; returns that root."""
    root = Path(into) / "parent"
    root.mkdir(parents=True)
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(root)], input=tar, check=True)
    return root


def _src_lines(root):
    return sum(path.read_bytes().count(b"\n")
               for path in sorted((root / "src").rglob("*.py")))


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _run(root, workload, seed, seconds):
    """One benchmark run on the checkout at ``root``: its record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("%s on %s failed:\n%s" % (workload, root, proc.stderr))
    out = root / ".perfbench-out" / ("%s-seed%d-trace0.json" % (workload, seed))
    return json.loads(out.read_text())


# one seed-0 pass of the named workloads in a fresh interpreter at the
# checkout's root, counting map calls and lane-steps; prints JSON
_COUNT = r"""
import json, sys
sys.path.insert(0, "perfbench")
import package
from workloads import WORKLOADS
rsb = package.load()
counts = {}
for mod in (rsb.sk, rsb.hopfield):
    def counted(plan, offset, coeffs, kernel=mod.plan_moments):
        counts["map_calls"] += 1
        counts["lane_steps"] += len(offset)
        return kernel(plan, offset, coeffs)
    mod.plan_moments = counted
out = {}
for name in sys.argv[1:]:
    counts.update(map_calls=0, lane_steps=0)
    for item in WORKLOADS[name].items(0):
        WORKLOADS[name].call(rsb, item)
    out[name] = dict(counts)
print(json.dumps(out))
"""
COUNTED = ("rs_sweep", "rsb_solve")

# per-layer timings in a fresh interpreter at the checkout's root: the
# median us of one block map application (model, k, nodes, lanes) and
# of one iteration of the damped loop on a k=0 block of 16 lanes, and
# the median ns per proposal of each Metropolis chain, over ``repeats``
# timed batches of about 20 ms each, each scaled to the reference speed
# by the perfbench calibrations taken before and after it; prints JSON
_LAYERS = r"""
import json, statistics, sys, timeit
sys.path.insert(0, "perfbench")
import package
from calibrate import REFERENCE_S, calibration
package.pin_allocator()
rsb = package.load(with_cli=False)
import numpy as np
repeats = int(sys.argv[1])
POINTS = {"sk": rsb.core.SkParams(beta=1.5, j0=0.5),
          "hopfield": rsb.core.HopfieldParams(beta=1.5, alpha=0.05)}

def block(model, k, nodes, lanes):
    mod, params = getattr(rsb, model), POINTS[model]
    thetas = tuple(np.linspace(0.3, 0.6, k).tolist())
    plan = rsb.quadrature.level_plan(
        thetas, rsb.core.QuadratureSpec(nodes_per_level=nodes))
    starts = rsb.solver.default_starts(model, params, k, thetas)
    x = np.asfortranarray([(s.m,) + s.qs for s in starts] * lanes)[:lanes]
    consts = mod._lanes([params] * lanes)
    return lambda: mod._sce_step(consts, plan, x)

def median_us(fn, per=1):
    number = max(1, int(0.02 / min(timeit.repeat(fn, number=1, repeat=3))))
    runs = []
    for _ in range(repeats):
        before = calibration()
        raw = timeit.timeit(fn, number=number)
        runs.append(raw * REFERENCE_S / (0.5 * (before + calibration())))
    return statistics.median(runs) / number / per * 1e6

out = {}
for model in ("sk", "hopfield"):
    for k, nodes, lanes in ((0, 80, 1), (0, 80, 16), (1, 80, 2), (2, 24, 2)):
        out["map_us.%s.k%dn%d.lanes%d" % (model, k, nodes, lanes)] = \
            median_us(block(model, k, nodes, lanes))
# a pairwise row at beta=1.9 as the k=0 sweep iterates it, run for a
# fixed number of iterations at a tolerance no lane reaches
params = [rsb.core.SkParams(beta=1.9, j0=j) for j in np.linspace(0.0, 1.4, 8)]
plan = rsb.quadrature.level_plan((), rsb.core.QuadratureSpec(nodes_per_level=80))
x0 = np.array([(s.m,) + s.qs for p in params
               for s in rsb.solver.default_starts("sk", p, 0)])
consts = rsb.sk._lanes([p for p in params for _ in range(2)])
opts = rsb.solver.SolverOptions(tol=1e-300, max_iter=400)
loop = lambda: rsb.solver._iterate(
    lambda c, x: rsb.sk._sce_step(c, plan, x), x0, opts, consts)
iterations = max(r.iterations for r in loop())
out["iterate_us.sk.k0n80.lanes16"] = median_us(loop, iterations)
# every proposal accepted (sk_para), almost none (sk_ferro)
for model, params, n in (
        ("hopfield", rsb.core.HopfieldParams(beta=2.0, alpha=0.01), 600),
        ("sk", rsb.core.SkParams(beta=0.5), 200),
        ("sk_para", rsb.core.SkParams(beta=0.0), 256),
        ("sk_ferro", rsb.core.SkParams(beta=2.0, j0=3.0, j=0.0), 100)):
    run = lambda: rsb.oracle.metropolis_run(params, n, 20)
    out["proposal_ns.%s.n%d" % (model, n)] = median_us(run, n * 20) * 1e3
print(json.dumps(out))
"""


def _counts(root):
    """Map calls and lane-steps of one seed-0 pass per counted workload
    on the checkout at ``root``."""
    proc = subprocess.run([sys.executable, "-c", _COUNT, *COUNTED], cwd=root,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("counting on %s failed:\n%s" % (root, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


LAYER_ROUNDS, LAYER_REPEATS = 4, 9


def _layers(sides):
    """Per side and layer, the median over ``LAYER_ROUNDS`` alternating
    rounds of the per-round median us."""
    # one BLAS thread, as perfbench/run.py sets before numpy loads
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    rounds = {side: [] for side in sides}
    for r in range(LAYER_ROUNDS):
        for side in (list(sides) if r % 2 == 0 else list(sides)[::-1]):
            proc = subprocess.run([sys.executable, "-c", _LAYERS,
                                   str(LAYER_REPEATS)], cwd=sides[side],
                                  env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                raise SystemExit("layer timings on %s failed:\n%s"
                                 % (sides[side], proc.stderr))
            rounds[side].append(json.loads(proc.stdout.strip()
                                           .splitlines()[-1]))
    return {side: {name: statistics.median(run[name] for run in runs)
                   for name in runs[0]} for side, runs in rounds.items()}


def _tier1(root):
    """Wall time and summary line of the Tier-1 suite at ``root``."""
    env = dict(os.environ, PYTHONPATH="src")
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=root, env=env, capture_output=True,
                          text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(wall, 2), "summary": lines[-1] if lines else "",
            "returncode": proc.returncode}


def _summarize(runs, better):
    """Per metric: every run's value, median and quartiles, and the
    pairs the change won, from the two sides' records in pair order."""
    out = {}
    for side in ("parent", "change"):
        records = runs[side]
        metrics = {}
        for name in sorted(records[0]["metrics"]):
            if name not in better and name != "failed_frac":
                continue
            values = [r["metrics"][name]["value"] for r in records]
            q1, q2, q3 = _quartiles(values)
            metrics[name] = {"median": q2, "q1": q1, "q3": q3, "runs": values}
        out[side] = {
            "metrics": metrics,
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "src_sha256": records[0]["meta"]["src_sha256"],
        }
    wins = {}
    for name, sign in better.items():
        pairs = zip(out["parent"]["metrics"][name]["runs"],
                    out["change"]["metrics"][name]["runs"])
        wins[name] = sum(1 for p, c in pairs if sign * (p - c) > 0)
    out["change_better_pairs"] = wins
    return out


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    every = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--parent", default="HEAD")
    ap.add_argument("--workloads", default=",".join(every))
    ap.add_argument("--repeats", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec.get("run_seconds", 20))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--merge", action="store_true")
    ap.add_argument("--no-tier1", dest="tier1", action="store_false")
    ap.add_argument("--workdir", help="scratch directory for the parent "
                    "(default: a new temporary directory)")
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    unknown = set(workloads) - set(every)
    if unknown:
        ap.error("unknown workloads: %s" % ", ".join(sorted(unknown)))
    # lower is better for every gated metric but those marked "higher"
    better = {m["name"]: 1 if m["better"] == "lower" else -1
              for m in spec["end_to_end"]}

    target = ROOT / ("BENCH_%d.json" % args.pr)
    record = json.loads(target.read_text()) if args.merge and target.exists() \
        else {"workloads": {}}
    workdir = args.workdir or tempfile.mkdtemp(prefix="bench-")
    parent = _archive(args.parent, workdir)
    sides = {"parent": parent, "change": ROOT}
    dirty = bool(_git("status", "--porcelain", "--", "src", "tests"))
    record.update({
        "pr": args.pr,
        "git_sha": {"parent": _git("rev-parse", args.parent),
                    "change": _git("rev-parse", "HEAD"),
                    "change_has_uncommitted_src_or_tests": dirty},
        "src_lines": {"parent": _src_lines(parent), "change": _src_lines(ROOT)},
        "command": "perfbench/run.py --seed %d --seconds %d --trace 0"
                   % (args.seed, args.seconds),
    })
    record["src_lines"]["net"] = (record["src_lines"]["change"]
                                  - record["src_lines"]["parent"])
    record["counts"] = {side: _counts(root) for side, root in sides.items()}
    record["counts"]["identical"] = (record["counts"]["parent"]
                                     == record["counts"]["change"])
    record["layers"] = dict(_layers(sides),
                            unit="us at the reference speed, ns for "
                                 "proposal_ns",
                            rounds=LAYER_ROUNDS, repeats=LAYER_REPEATS)
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for rep in range(args.repeats):
            order = ("parent", "change") if rep % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(_run(sides[side], workload, args.seed,
                                       args.seconds))
            print("%s pair %d/%d: wall_s parent %.4g change %.4g" % (
                workload, rep + 1, args.repeats,
                runs["parent"][-1]["metrics"]["wall_s"]["value"],
                runs["change"][-1]["metrics"]["wall_s"]["value"]), flush=True)
        entry = _summarize(runs, better)
        entry["repeats"] = args.repeats
        record["workloads"][workload] = entry
    if args.tier1:
        record["tier1"] = {side: _tier1(root) for side, root in sides.items()}
    target.write_text(json.dumps(record, indent=1) + "\n")
    print("wrote", target)


if __name__ == "__main__":
    main()
