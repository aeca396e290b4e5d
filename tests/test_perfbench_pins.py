"""The benchmark's own output checks, seed-0 pins included, on two passes
of every workload: an item fails, as in a benchmark run, when it raises,
when its output fails the workload's check or when it changes between
the passes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# run from perfbench/ so its modules import as the benchmark imports them
TWO_PASSES = r"""
import json, sys
import package
from run import check_outputs
from workloads import DEFAULT_SEED, WORKLOADS
rsb = package.load()
wl = WORKLOADS[sys.argv[1]]
items = wl.items(DEFAULT_SEED)


def run(i, item):
    try:
        return (i, 0.0, 0.0, wl.call(rsb, item), None)
    except Exception as exc:
        return (i, 0.0, 0.0, None, "%s: %s" % (type(exc).__name__, exc))


passes = [(False, [run(i, item) for i, item in enumerate(items)])
          for _ in range(2)]
attempted, failed, problems, run_problems = check_outputs(
    wl, items, passes, DEFAULT_SEED)
print(json.dumps({"attempted": attempted, "failed": failed,
                  "problems": problems + run_problems}))
"""


@pytest.mark.parametrize("workload", ["finite_size", "rsb_solve", "rs_sweep",
                                      "pressure_landscape"])
def test_benchmark_pins_hold_at_seed_zero(workload):
    proc = subprocess.run([sys.executable, "-c", TWO_PASSES, workload],
                          cwd=ROOT / "perfbench", capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert res["attempted"] > 0
    assert res["failed"] == 0 and not res["problems"], res["problems"]


# the collapse items of the pressure landscape at every seed the benchmark
# may draw: equal plateaus must give the flat pressure on any draw
COLLAPSE_SEEDS = r"""
import json
import package
from workloads import WORKLOADS
rsb = package.load()
wl = WORKLOADS["pressure_landscape"]
failed = []
for seed in range(30):
    for item in wl.items(seed):
        if "_collapse" in item.label:
            problems = wl.check(item, wl.call(rsb, item), seed)
            if problems:
                failed.append([seed, item.label] + problems)
print(json.dumps(failed))
"""


def test_collapse_items_hold_at_every_seed():
    proc = subprocess.run([sys.executable, "-c", COLLAPSE_SEEDS],
                          cwd=ROOT / "perfbench", capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
