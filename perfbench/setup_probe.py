"""Time one cold start of a workload in a fresh interpreter: importing
the package plus the first calls that fill its caches (Hermite nodes,
sampling nodes, state matrices, option parsing).

Usage: python3 perfbench/setup_probe.py <workload> <seed>
Prints one JSON line {"import_s", "warm_s", "calibration_s"}; the
calibration (see calibrate.py) runs after the timed part.
"""

import time

import package

package.pin_allocator()
T0 = time.perf_counter()

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


def main(name, seed):
    from calibrate import calibration
    from workloads import WORKLOADS
    wl = WORKLOADS[name]
    rsb = package.load(with_cli=wl.cli)
    import_s = time.perf_counter() - T0
    items = wl.items(seed)
    t = time.perf_counter()
    wl.warm(rsb, items)
    warm_s = time.perf_counter() - t
    cal = statistics.median(calibration() for _ in range(5))
    print(json.dumps({"import_s": import_s, "warm_s": warm_s,
                      "calibration_s": cal}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
