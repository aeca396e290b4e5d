"""Machine-speed calibration for the timed metrics.

On a shared virtual machine the same code runs up to 1.5x slower for
stretches of several seconds, set by load outside this process (no
steal time shows; wall and CPU time agree).  The runner calibrates at
item boundaries at least every ``EVERY_S`` seconds of timed work and
scales the items in between by ``REFERENCE_S`` / (mean of the two
bracketing calibrations), which turns their times into seconds at the
reference speed.  Items between two calibrations run back to back, as
a caller's loop would, so their caches stay warm.  The calibration
never calls the package and allocates nothing, so neither a change of
the program nor the allocator's state can move it.  Raw times are
recorded next to the scaled ones.
"""

from time import perf_counter

import numpy as np

# median calibration time on the machine the benchmark was defined on
# (Intel Xeon, 4th-gen Xeon Scalable class, 2 vCPUs under KVM); it only
# fixes the unit of the scaled times
REFERENCE_S = 1.2e-3
EVERY_S = 0.25

_GRID = np.linspace(-4.0, 4.0, 6400)        # cache-resident, like a k<=1 grid
_WIDE = np.linspace(-4.0, 4.0, 1 << 15)
_STREAM = np.linspace(-4.0, 4.0, 1 << 19)   # 4 MB, beyond L2, like a k>=2 grid
_GRID_OUT = np.empty_like(_GRID)
_WIDE_OUT = np.empty_like(_WIDE)


def _kernel(x, out):
    np.abs(x, out=out)
    out *= -2.0
    np.exp(out, out=out)
    np.log1p(out, out=out)
    return out.sum()


def _unit():
    start = perf_counter()
    for _ in range(10):
        _kernel(_GRID, _GRID_OUT)
    _kernel(_WIDE, _WIDE_OUT)
    _STREAM.sum()
    acc = 0
    for i in range(5000):
        acc += i * i
    return perf_counter() - start


def calibration():
    """Seconds for a fixed mix of the program's kinds of work:
    transcendental numpy kernels on cache-resident and larger arrays, a
    memory-bound pass over 4 MB, and interpreted Python arithmetic.  The
    fastest of three repeats, so that one preemption does not read as a
    slow machine."""
    return min(_unit() for _ in range(3))
