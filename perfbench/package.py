"""Locate and import the package from the checkout the benchmark sits
in, and fix the process settings its timings depend on.

Importing this module imports nothing heavy, so the setup probe can
start its clock before the package (and numpy) load.
"""

import ctypes
import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("core", "quadrature", "sk", "hopfield", "solver", "oracle")


# glibc mallopt parameters and the values the benchmark runs with
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC = {"mmap_threshold": 32 << 20, "trim_threshold": 256 << 20}


def pin_allocator():
    """Fix glibc's malloc thresholds for this process.

    By default glibc adapts them to the allocation history, and a k=2
    pressure then takes 9 or 20-26 ms depending on whether its 4 MB
    temporaries come back from the heap or are mapped and faulted in
    anew.  Fixed thresholds keep them on the heap in every run.  Returns
    the settings, or None where the C library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if (mallopt(M_MMAP_THRESHOLD, MALLOC["mmap_threshold"])
            and mallopt(M_TRIM_THRESHOLD, MALLOC["trim_threshold"])):
        return dict(MALLOC)
    return None


class MissingPackage(RuntimeError):
    """The checkout has no package source next to the benchmark."""


def load(with_cli=True):
    """Import the package's modules from ``src/`` of this checkout and
    return them as a namespace (``rsb.sk``, ``rsb.solver``, ...)."""
    init = SRC / "rsbsolve" / "__init__.py"
    if not init.is_file():
        raise MissingPackage("no package source at %s" % init)
    sys.path.insert(0, str(SRC))
    names = MODULES + (("cli",) if with_cli else ())
    mods = {n: importlib.import_module("rsbsolve." + n) for n in names}
    where = Path(mods["core"].__file__).resolve()
    if SRC not in where.parents:
        raise MissingPackage("imported rsbsolve from %s, not from %s"
                             % (where, SRC))
    return SimpleNamespace(**mods)
