"""The benchmark's own output checks, seed-0 pins included, on one pass
of the workloads whose outputs are pinned bit for bit or to 1e-9."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# run from perfbench/ so its modules import as the benchmark imports them
ONE_PASS = r"""
import json, sys
import package
from run import check_outputs
from workloads import DEFAULT_SEED, WORKLOADS
rsb = package.load()
wl = WORKLOADS[sys.argv[1]]
items = wl.items(DEFAULT_SEED)
results = [(i, 0.0, 0.0, wl.call(rsb, item), None)
           for i, item in enumerate(items)]
attempted, failed, problems, run_problems = check_outputs(
    wl, items, [(False, results)], DEFAULT_SEED)
print(json.dumps({"attempted": attempted, "failed": failed,
                  "problems": problems + run_problems}))
"""


@pytest.mark.parametrize("workload", ["finite_size", "rsb_solve"])
def test_benchmark_pins_hold_at_seed_zero(workload):
    proc = subprocess.run([sys.executable, "-c", ONE_PASS, workload],
                          cwd=ROOT / "perfbench", capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert res["attempted"] > 0
    assert res["failed"] == 0 and not res["problems"], res["problems"]
