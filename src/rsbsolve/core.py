"""Shared value types and the error hierarchy used across the package.

Everything here is a frozen record or an exception class; the numerical
work lives in the sibling modules.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass


# ---------------------------------------------------------------------------
# errors

class ShapeMismatch(ValueError):
    """A container has the wrong length for the declared hierarchy depth."""


class OrderingViolation(ValueError):
    """A monotonicity constraint between adjacent entries is broken."""


class RangeViolation(ValueError):
    """A value sits outside its admissible interval."""


class NonFiniteIntegrand(ValueError):
    """An integrand evaluated to nan or inf inside a quadrature routine."""


class BudgetExceeded(RuntimeError):
    """The tensor grid does not fit the configured budget even with two
    nodes per level."""


class DomainError(ArithmeticError):
    """Base class for runtime domain failures of the closed-form
    evaluators.  Raised instead of returning a number."""


class SusceptibilityDivergence(DomainError):
    """A linear-response denominator hit zero or went negative."""


class BracketViolation(ValueError):
    """A scalar search was handed an empty or out-of-range bracket."""


# ---------------------------------------------------------------------------
# parameter records

def _check_nonneg(obj, names):
    for name in names:
        v = float(getattr(obj, name))
        object.__setattr__(obj, name, v)
        if not math.isfinite(v) or v < 0.0:
            raise RangeViolation("%s must be finite and >= 0, got %r" % (name, v))


@dataclass(frozen=True)
class SkParams:
    """Couplings of the two-body random-interaction model: inverse
    temperature ``beta``, ferromagnetic bias ``j0``, disorder strength
    ``j``."""

    beta: float
    j0: float = 0.0
    j: float = 1.0

    def __post_init__(self):
        _check_nonneg(self, ("beta", "j0", "j"))


@dataclass(frozen=True)
class HopfieldParams:
    """Inverse temperature ``beta`` and storage load ``alpha`` (patterns
    per site) of the associative-memory model."""

    beta: float
    alpha: float = 0.0

    def __post_init__(self):
        _check_nonneg(self, ("beta", "alpha"))


# ---------------------------------------------------------------------------
# hierarchical trial point

def _float_tuple(xs, name):
    if xs is None:
        return None
    if isinstance(xs, (str, bytes)) or not hasattr(xs, "__iter__"):
        raise ShapeMismatch("%s must be a sequence, got %r" % (name, xs))
    return tuple(float(x) for x in xs)


@dataclass(frozen=True)
class RsbAnsatz:
    """A depth-``k`` hierarchical trial point.

    ``qs`` holds the k+1 overlap plateaus (a single value at k=0) and
    ``thetas`` the k interior weight exponents; the outer exponents 0 and
    1 are implicit and never stored.  ``ps`` carries the conjugate
    plateaus of the associative-memory model that a solve reports (None
    for the pure glass); no evaluator reads it.  Plateaus may touch;
    exponents may not.
    """

    k: int
    m: float
    qs: tuple
    thetas: tuple = ()
    ps: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "m", float(self.m))
        object.__setattr__(self, "qs", _float_tuple(self.qs, "qs"))
        object.__setattr__(self, "thetas", _float_tuple(self.thetas, "thetas"))
        object.__setattr__(self, "ps", _float_tuple(self.ps, "ps"))
        _check_ansatz(self)

    # -- serialization ----------------------------------------------------

    def to_dict(self):
        return {
            "k": self.k,
            "m": self.m,
            "qs": list(self.qs),
            "ps": None if self.ps is None else list(self.ps),
            "thetas": list(self.thetas),
        }

    def to_json(self):
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data):
        try:
            return cls(k=data["k"], m=data["m"], qs=data["qs"],
                       thetas=data["thetas"], ps=data.get("ps"))
        except KeyError as exc:
            raise ShapeMismatch("missing key %s" % exc) from exc

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


def _check_ansatz(a):
    if a.k < 0:
        raise ShapeMismatch("k must be >= 0, got %d" % a.k)
    if len(a.qs) != a.k + 1:
        raise ShapeMismatch("qs must have k+1=%d entries, got %d"
                            % (a.k + 1, len(a.qs)))
    if len(a.thetas) != a.k:
        raise ShapeMismatch("thetas must have k=%d entries, got %d"
                            % (a.k, len(a.thetas)))
    if a.ps is not None and len(a.ps) != a.k + 1:
        raise ShapeMismatch("ps must have k+1=%d entries, got %d"
                            % (a.k + 1, len(a.ps)))
    if not (-1.0 <= a.m <= 1.0):
        raise RangeViolation("m must lie in [-1, 1], got %r" % a.m)
    for q in a.qs:
        if not (0.0 <= q <= 1.0):
            raise RangeViolation("overlap plateau %r outside [0, 1]" % q)
    for lo, hi in zip(a.qs, a.qs[1:]):
        # equal plateaus are allowed, decreasing ones are not
        if hi < lo:
            raise OrderingViolation("overlap plateaus must be non-decreasing")
    if a.ps is not None:
        for p in a.ps:
            if not (math.isfinite(p) and p >= 0.0):
                raise RangeViolation("conjugate plateau %r must be finite and >= 0" % p)
        for lo, hi in zip(a.ps, a.ps[1:]):
            if hi < lo:
                raise OrderingViolation("conjugate plateaus must be non-decreasing")
    for th in a.thetas:
        if not (0.0 < th < 1.0):
            raise RangeViolation("weight exponent %r outside (0, 1)" % th)
    for lo, hi in zip(a.thetas, a.thetas[1:]):
        if hi <= lo:
            raise OrderingViolation("weight exponents must be strictly increasing")


def validate_ansatz(ansatz):
    """Re-check every structural constraint of ``ansatz`` and return it.

    Construction already validates, so this is idempotent; it exists so
    callers holding an ansatz from an untrusted source can assert on it.
    """
    if not isinstance(ansatz, RsbAnsatz):
        raise ShapeMismatch("expected an RsbAnsatz, got %r" % type(ansatz))
    _check_ansatz(ansatz)
    return ansatz


# ---------------------------------------------------------------------------
# quadrature configuration

MAX_NODES = 1024


@dataclass(frozen=True)
class QuadratureSpec:
    """Budget knobs for the nested Gaussian averages.

    Every level of a depth-k average uses the same number n of
    Gauss-Hermite nodes: the largest n <= ``nodes_per_level`` whose
    tensor grid n^(k+1) fits ``max_tensor_points``.  So
    ``nodes_per_level`` is an upper bound that deep hierarchies fall
    below (the default gives 80 nodes up to k=2, 32 at k=3, 16 at k=4);
    a grid that does not fit with two nodes per level raises
    BudgetExceeded.  Interior levels with a zero field increment are
    dropped before the node count is fitted, so equal plateaus cost one
    level at any depth.  The budget fits n but no longer prices a call
    at k >= 2: a lane whose deeper levels run on field grids (see
    ``quadrature``) evaluates far fewer than n^(k+1) points.  The node
    rule takes O(n^2) memory, so ``nodes_per_level`` is capped at
    ``MAX_NODES`` = 1024, the most the default budget gives any depth
    k >= 1.
    """

    nodes_per_level: int = 80
    max_tensor_points: int = 1 << 20

    def __post_init__(self):
        object.__setattr__(self, "nodes_per_level", int(self.nodes_per_level))
        object.__setattr__(self, "max_tensor_points", int(self.max_tensor_points))
        if not 2 <= self.nodes_per_level <= MAX_NODES:
            raise RangeViolation("nodes_per_level must lie in [2, %d], got %d"
                                 % (MAX_NODES, self.nodes_per_level))
        if self.max_tensor_points < 1:
            raise RangeViolation("max_tensor_points must be >= 1")


# ---------------------------------------------------------------------------
# outcomes

@dataclass(frozen=True)
class Evaluation:
    """Pressure value with its additive pieces, keyed by name."""

    pressure: float
    terms: dict


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one fixed-point run.

    ``ansatz`` is the final iterate (an RsbAnsatz for model solves, a bare
    scalar or array for generic maps).  ``pressure`` and ``stationarity``
    are filled by the model drivers and stay None for generic maps or
    failed branches; ``stationary`` is True when stationarity is within
    1e-5 and False for a converged point that the pressure on its grid
    does not make stationary (None without the check).
    ``residual_history`` keeps the per-iteration update norms for
    diagnostics, ``start`` the index of the start a model solve
    iterated from and ``nodes`` the Gauss-Hermite node count per level
    of its quadrature plan (both None for generic maps).
    """

    ansatz: object
    residual: float
    iterations: int
    converged: bool
    pressure: float | None = None
    stationarity: float | None = None
    stationary: bool | None = None
    residual_history: tuple = ()
    error: str | None = None
    start: int | None = None
    nodes: int | None = None
