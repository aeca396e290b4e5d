#!/usr/bin/env python3
"""rsbsolve benchmark: one seeded workload, timed end to end or traced
per layer, with its outputs checked.

    python3 perfbench/run.py --workload rsb_solve --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Run from any directory; the package is imported from ``src/`` of the
checkout this file sits in.  The run is single-process, with BLAS/OpenMP
capped at one thread and glibc's malloc thresholds fixed (see
package.pin_allocator).  ``--trace 0`` times whole passes over the
workload's items with the program untouched; ``--trace 1`` alternates
untouched and traced passes and reports the per-layer metrics.  A
human-readable table goes to stdout, the full result (metadata, every
metric with its sample count, the failures) to
``.perfbench-out/<workload>-seed<n>-trace<t>.json``, and the last stdout
line is the JSON summary {"correct", "attempted", "failed", "metrics"}.
"""

import os

# before numpy loads: one BLAS/OpenMP thread, at most nproc
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import package  # noqa: E402
import tracing  # noqa: E402
from calibrate import EVERY_S, REFERENCE_S, calibration  # noqa: E402

MALLOC = package.pin_allocator()
SETUP_REPEATS = 5
OUT_DIR = package.ROOT / ".perfbench-out"
# item_p90_ms is reported only where a pass has at least this many items
P90_MIN_ITEMS = 100


def median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# metadata

def _git_sha():
    head = package.ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    name = text[5:]
    loose = package.ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = package.ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata(seed, seconds, trace):
    import scipy
    files = sorted(package.SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(package.SRC).as_posix().encode() + b"\0")
        digest.update(data)
        lines += data.count(b"\n")
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "src_files": len(files),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "malloc": MALLOC,
        "processes": 1,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


# ---------------------------------------------------------------------------
# measuring

def measure_setup(name, seed):
    """Import plus cache warm-up in fresh interpreters: (seconds at
    reference speed, raw seconds), one pair per interpreter."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "setup_probe.py")
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, probe, name, str(seed)],
                              cwd=package.ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("setup probe failed:\n" + proc.stderr)
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        raw = rec["import_s"] + rec["warm_s"]
        samples.append((raw * REFERENCE_S / rec["calibration_s"], raw))
    return samples


def run_pass(wl, rsb, items, tracer=None):
    """One pass over the items, calibrating at item boundaries every
    EVERY_S seconds of timed work (see calibrate.py).  Returns
    [(index, raw seconds, seconds at reference speed, output, error)]."""
    results, segment = [], []
    cal = calibration()
    start_segment = perf_counter()
    for idx, item in enumerate(items):
        start = perf_counter()
        try:
            if tracer is None:
                out = wl.call(rsb, item)
            else:
                out = tracer.call("bench.item", wl.call, rsb, item)
            err = None
        except Exception as exc:  # a raising item is a failed item
            out, err = None, "%s: %s" % (type(exc).__name__, exc)
        segment.append([idx, perf_counter() - start, None, out, err])
        if perf_counter() - start_segment >= EVERY_S or idx == len(items) - 1:
            nxt = calibration()
            scale = REFERENCE_S / (0.5 * (cal + nxt))
            for rec in segment:
                rec[2] = rec[1] * scale
            results += [tuple(rec) for rec in segment]
            segment, cal = [], nxt
            start_segment = perf_counter()
    return results


def timed_passes(wl, rsb, items, seconds, tracer):
    """Whole passes until ``seconds`` have elapsed; with a tracer every
    second pass is traced (at least one of each).  Returns
    [(traced, results)]."""
    passes = []
    t0 = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracing.install(tracer, rsb)
            try:
                results = run_pass(wl, rsb, items, tracer)
            finally:
                tracer.restore()
        else:
            results = run_pass(wl, rsb, items)
        passes.append((traced, results))
        if perf_counter() - t0 >= seconds and (tracer is None or len(passes) >= 2):
            return passes


def check_outputs(wl, items, passes, seed):
    """Judge every item execution; returns (attempted, failed, problems,
    run_problems).  An item fails when it raised, when its output changed
    between passes, or when its first output fails the workload check."""
    from workloads import UnsettledReference
    first = {}
    verdict = {}
    problems, run_problems = [], []
    attempted = failed = 0
    for _, results in passes:
        for idx, _, _, out, err in results:
            attempted += 1
            label = items[idx].label
            if err is not None:
                failed += 1
                problems.append((label, "raised " + err))
                continue
            if idx not in first:
                first[idx] = wl.fingerprint(out)
                try:
                    found = wl.check(items[idx], out, seed)
                except UnsettledReference as exc:
                    run_problems.append(str(exc))
                    found = []
                except Exception as exc:  # an output the check cannot read
                    found = ["check raised %s: %s" % (type(exc).__name__, exc)]
                verdict[idx] = not found
                problems += [(label, p) for p in found]
            elif wl.fingerprint(out) != first[idx]:
                failed += 1
                problems.append((label, "output changed between passes"))
                continue
            failed += not verdict[idx]
    return attempted, failed, problems, run_problems


# ---------------------------------------------------------------------------
# one workload

def run_workload(name, seed, seconds, trace):
    from workloads import WORKLOADS
    wl = WORKLOADS[name]
    setup = measure_setup(name, seed)
    rsb = package.load()
    items = wl.items(seed)
    wl.warm(rsb, items)
    tracer = tracing.Tracer() if trace else None
    passes = timed_passes(wl, rsb, items, seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, problems, run_problems = check_outputs(
        wl, items, passes, seed)
    plain = [results for traced, results in passes if not traced]
    walls = [sum(r[2] for r in results) for results in plain]
    raw_walls = [sum(r[1] for r in results) for results in plain]
    item_ms = [r[2] * 1e3 for results in plain for r in results]
    raw_ms = [r[1] * 1e3 for results in plain for r in results]

    metrics = {}     # name -> (value, unit, samples)
    extra = {}
    if trace:
        traced_walls = [sum(r[2] for r in results)
                        for traced, results in passes if traced]
        overhead = median(traced_walls) / median(walls) - 1.0
        metrics, extra = tracing.layer_metrics(
            tracer, len(traced_walls), rsb.core.QuadratureSpec(), overhead)
        extra["trace.missing_entry_points"] = (len(tracer.missing), "count", 0)
    else:
        metrics["setup_s"] = (median([s[0] for s in setup]), "s", len(setup))
        metrics["wall_s"] = (median(walls), "s", len(walls))
        metrics["item_p50_ms"] = (median(item_ms), "ms", len(item_ms))
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB", 1)
        if len(items) >= P90_MIN_ITEMS:
            extra["item_p90_ms"] = (float(np.percentile(item_ms, 90)), "ms",
                                    len(item_ms))
        extra["setup_raw_s"] = (median([s[1] for s in setup]), "s", len(setup))
        extra["wall_raw_s"] = (median(raw_walls), "s", len(raw_walls))
        extra["item_p50_raw_ms"] = (median(raw_ms), "ms", len(raw_ms))
    extra["failed_frac"] = (failed / attempted if attempted else 1.0, "frac",
                            attempted)

    meta = metadata(seed, seconds, trace)
    meta.update(workload=name, passes=len(passes), items_per_pass=len(items))
    OUT_DIR.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (name, seed, trace)
    if tracer is not None:
        meta["missing_entry_points"] = sorted(tracer.missing)
        tracer.dump(OUT_DIR / (stem + ".spans.jsonl"))
    correct = not run_problems and bool(walls)
    per_item = {}
    for results in plain:
        for idx, _, scaled, _, _ in results:
            per_item.setdefault(items[idx].label, []).append(scaled * 1e3)
    record = {
        "meta": meta, "correct": correct, "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in {**metrics, **extra}.items()},
        "item_median_ms": {k: median(v) for k, v in per_item.items()},
        "problems": [list(p) for p in problems] + [["run", p] for p in run_problems],
    }
    (OUT_DIR / (stem + ".json")).write_text(json.dumps(record, indent=1))

    print("workload %s  seed %d  passes %d  items/pass %d  src %s  sha %s"
          % (name, seed, len(passes), len(items), meta["src_sha256"][:12],
             meta["git_sha"] or "-"))
    for key, (value, unit, n) in {**metrics, **extra}.items():
        print("  %-40s %14.6g %-6s n=%d" % (key, value, unit, n))
    for label, problem in (problems + [("run", p) for p in run_problems])[:20]:
        print("  FAIL %s: %s" % (label, problem))
    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": {k: {"value": v, "unit": u}
                           for k, (v, u, _) in metrics.items()}}
    print(json.dumps(summary))
    return summary


def run_all(seed, seconds, trace):
    """Every workload in its own interpreter, then one combined line."""
    from workloads import WORKLOADS
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)], cwd=package.ROOT, capture_output=True,
            text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit("workload %s failed" % name)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            merged["metrics"]["%s.%s" % (name, key)] = val
    print(json.dumps(merged))


def main(argv=None):
    from workloads import DEFAULT_SEED, WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (package.SRC / "rsbsolve" / "__init__.py").is_file():
        raise SystemExit("perfbench: no package source under %s" % package.SRC)
    if args.workload == "all":
        run_all(args.seed, args.seconds, args.trace)
    else:
        run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
