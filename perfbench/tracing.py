"""In-memory span recorder that wraps the package's layer entry points.

Each wrapper replaces a function at the module attribute where its
caller looks it up, records (name, start, end, parent, attributes,
error) and delegates.  Nothing under ``src/`` is edited: the wrappers
are installed for traced passes only and removed afterwards, so the
end-to-end passes run the program untouched.

An entry point that no longer exists under its old name is listed in
``Tracer.missing`` instead of failing the run; its time then shows up
as self time of the caller's span or as ``trace.unattributed_s``.
"""

import functools
import inspect
import json
import math
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, ATTRS, ERROR = range(6)

# (metric, unit): every name here is reported by every traced run, as 0
# where the workload does not reach the layer
PER_LAYER = [
    ("quadrature.calls", "count"),
    ("quadrature.ratio_calls", "count"),
    ("quadrature.logcosh_calls", "count"),
    ("quadrature.grid_points", "count"),
    ("quadrature.busy_s", "s"),
    ("quadrature.ns_per_point", "ns"),
    ("quadrature.call_ms.k0n80", "ms"),
    ("quadrature.call_ms.k1n80", "ms"),
    ("quadrature.call_ms.k2n24", "ms"),
    ("quadrature.call_ms.k2n80", "ms"),
    ("quadrature.call_ms.k3n80", "ms"),
    ("sk.map_calls", "count"),
    ("sk.map_self_s", "s"),
    ("sk.pressure_calls", "count"),
    ("sk.pressure_self_s", "s"),
    ("hopfield.map_calls", "count"),
    ("hopfield.map_self_s", "s"),
    ("hopfield.pressure_calls", "count"),
    ("hopfield.pressure_self_s", "s"),
    ("hopfield.divergences", "count"),
    ("core.validate_calls", "count"),
    ("core.ansatz_builds", "count"),
    ("solver.solves", "count"),
    ("solver.starts", "count"),
    ("solver.map_evals", "count"),
    ("solver.map_evals_per_start.p50", "count"),
    ("solver.converged_start_frac", "frac"),
    ("solver.distinct_branch_frac", "frac"),
    ("solver.stationarity_s", "s"),
    ("solver.stationarity_pressure_evals", "count"),
    ("solver.self_s", "s"),
    ("solver.solve_p50_ms", "ms"),
    ("solver.solve_p90_ms", "ms"),
    ("cli.sweep_s", "s"),
    ("cli.self_s", "s"),
    ("oracle.gray_states_per_s", "1/s"),
    ("oracle.enum_busy_s", "s"),
    ("oracle.metropolis_flips_per_s", "1/s"),
    ("oracle.histogram_flips_per_s", "1/s"),
    ("oracle.interp_samples_per_s", "1/s"),
    ("oracle.interp_busy_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_s", "s"),
]


def arg_getter(fn, *names):
    """Fast extractor of named arguments from (args, kwargs) of ``fn``;
    a name the signature no longer has reads as None."""
    params = list(inspect.signature(fn).parameters.values())
    slots = []
    for name in names:
        pos = next((i for i, p in enumerate(params) if p.name == name), None)
        default = None
        if pos is not None and params[pos].default is not inspect.Parameter.empty:
            default = params[pos].default
        slots.append((name, math.inf if pos is None else pos, default))

    def get(args, kwargs):
        return tuple(args[pos] if pos < len(args) else kwargs.get(name, default)
                     for name, pos, default in slots)
    return get


class _TracedCommand:
    """Stands in for a click command: ``main(...)`` is traced, every
    other attribute is the command's own."""

    def __init__(self, command, traced_main):
        self._command = command
        self.main = traced_main

    def __getattr__(self, attr):
        return getattr(self._command, attr)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.missing = set()
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _traced(self, fn, name, capture=None, result=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   capture(args, kwargs) if capture else None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[END] = perf_counter()
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                stack.pop()
            rec[END] = perf_counter()
            if result is not None:
                rec[ATTRS] = result(out, rec[ATTRS])
            return out
        return functools.wraps(fn)(traced)

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` under a span of the benchmark's own (root) layer."""
        return self._traced(fn, name)(*args, **kwargs)

    def _replace(self, owner, attr, make):
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.add("%s.%s" % (getattr(owner, "__name__", owner), attr))
            return
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def wrap(self, owner, attr, name, capture=None, result=None):
        """Trace ``owner.attr`` as span ``name``; ``capture`` maps the
        call arguments and ``result`` the return value to attributes."""
        def make(fn):
            cap = capture(fn) if capture else None
            return self._traced(fn, name, cap, result)
        self._replace(owner, attr, make)

    def wrap_command(self, owner, attr, name):
        self._replace(owner, attr, lambda cmd: _TracedCommand(
            cmd, self._traced(cmd.main, name)))

    def count(self, owner, attr, key):
        """Count calls of ``owner.attr`` without a span (calls too short
        and too many to time)."""
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return counted
        self._replace(owner, attr, make)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        """JSON lines: a header naming the columns, then one span per
        line (its id is the line number after the header)."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "attrs",
                                 "error"]) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec, default=repr) + "\n")


# ---------------------------------------------------------------------------
# the package's layer entry points

def install(tracer, rsb):
    """Wrap every layer entry point of the imported package ``rsb``
    (a namespace holding its modules)."""
    def quad_capture(fn):
        get = arg_getter(fn, "thetas", "spec")

        def cap(args, kwargs):
            thetas, spec = get(args, kwargs)
            return {"k": len(thetas or ()), "spec": spec}
        return cap

    for mod in (rsb.sk, rsb.hopfield):
        tracer.wrap(mod, "nested_ratio_expect", "quadrature.ratio", quad_capture)
        tracer.wrap(mod, "nested_log_cosh_expect", "quadrature.logcosh",
                    quad_capture)
        tracer.count(mod, "validate_ansatz", "core.validate_calls")
    tracer.count(rsb.core.RsbAnsatz, "__post_init__", "core.ansatz_builds")

    tracer.wrap(rsb.sk, "sk_sce_krsb", "sk.map")
    tracer.wrap(rsb.sk, "sk_pressure_krsb", "sk.pressure")
    tracer.wrap(rsb.hopfield, "hop_sce_krsb", "hopfield.map")
    tracer.wrap(rsb.hopfield, "hop_pressure_krsb", "hopfield.pressure")

    def solve_result(reports, _):
        return {"branches": sum(1 for r in reports if r.converged)}

    def start_result(report, _):
        return {"converged": bool(report.converged)}

    for mod in (rsb.solver, rsb.cli):
        tracer.wrap(mod, "solve_model", "solver.solve", result=solve_result)
    tracer.wrap(rsb.solver, "damped_fixed_point", "solver.start",
                result=start_result)
    tracer.wrap(rsb.solver, "stationarity_check", "solver.stationarity")

    tracer.wrap_command(rsb.cli, "main", "cli.main")

    def work(*names, per=lambda *v: 0):
        def capture(fn):
            get = arg_getter(fn, *names)
            return lambda args, kwargs: {"work": per(*get(args, kwargs))}
        return capture

    oracle = rsb.oracle
    tracer.wrap(oracle, "enumerate_sk_pressure", "oracle.enumerate",
                work("n", "samples", per=lambda n, s: s * 2 ** n))
    tracer.wrap(oracle, "enumerate_hopfield_pressure", "oracle.enumerate",
                work("n", "samples", per=lambda n, s: s * 2 ** n))
    tracer.wrap(oracle, "metropolis_run", "oracle.metropolis",
                work("n", "sweeps", per=lambda n, s: n * s))
    tracer.wrap(oracle, "overlap_histogram", "oracle.histogram",
                work("n", "sweeps", "disorder_samples",
                     per=lambda n, s, d: 2 * d * n * s))
    tracer.wrap(oracle, "interpolation_derivative_check", "oracle.interpolation",
                work("samples", per=lambda s: s))


# ---------------------------------------------------------------------------
# per-layer metrics

def _grid_points(k, spec):
    # the tensor-grid budget rule documented on QuadratureSpec
    sizes = [spec.nodes_per_level] * (k + 1)
    fallback = getattr(spec, "mc_samples", 0)
    i = 0
    while math.prod(sizes) > spec.max_tensor_points and fallback > 0 and i <= k:
        sizes[i] = fallback
        i += 1
    return math.prod(sizes)


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer, passes, default_spec, overhead_frac):
    """Per-pass layer metrics from the spans of ``passes`` traced passes.

    Returns {name: (value, unit, samples)}; counts and busy times are per
    pass, rates and percentiles pool every traced span.
    """
    spans = tracer.spans
    child = np.zeros(len(spans))
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    by_name = defaultdict(list)
    for i, rec in enumerate(spans):
        by_name[rec[NAME]].append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def total(name, self_time=False):
        return sum(dur(i) - (child[i] if self_time else 0.0)
                   for i in by_name[name])

    def parent_name(i):
        p = spans[i][PARENT]
        return spans[p][NAME] if p >= 0 else None

    out = {}

    def put(name, value, samples):
        out[name] = (float(value), dict(PER_LAYER)[name], int(samples))

    per = float(passes)
    quad = by_name["quadrature.ratio"] + by_name["quadrature.logcosh"]
    points, sizes = 0, defaultdict(list)
    for i in quad:
        a = spans[i][ATTRS]
        spec = a["spec"] if a["spec"] is not None else default_spec
        points += _grid_points(a["k"], spec)
        sizes["k%dn%d" % (a["k"], spec.nodes_per_level)].append(dur(i) * 1e3)
    busy = sum(dur(i) for i in quad)
    put("quadrature.calls", len(quad) / per, len(quad))
    put("quadrature.ratio_calls", len(by_name["quadrature.ratio"]) / per,
        len(quad))
    put("quadrature.logcosh_calls", len(by_name["quadrature.logcosh"]) / per,
        len(quad))
    put("quadrature.grid_points", points / per, len(quad))
    put("quadrature.busy_s", busy / per, len(quad))
    put("quadrature.ns_per_point", busy / points * 1e9 if points else 0.0,
        len(quad))
    for name, _ in PER_LAYER:
        if name.startswith("quadrature.call_ms."):
            vals = sizes.get(name.rsplit(".", 1)[1], [])
            put(name, _pct(vals, 50), len(vals))
    extra = {"quadrature.call_ms.%s" % key: (_pct(v, 50), "ms", len(v))
             for key, v in sizes.items()
             if "quadrature.call_ms.%s" % key not in out}

    for model in ("sk", "hopfield"):
        for kind in ("map", "pressure"):
            name = "%s.%s" % (model, kind)
            n = len(by_name[name])
            put("%s.%s_calls" % (model, kind), n / per, n)
            put("%s.%s_self_s" % (model, kind), total(name, True) / per, n)
    hop = by_name["hopfield.map"] + by_name["hopfield.pressure"]
    div = sum(1 for i in hop if spans[i][ERROR] == "SusceptibilityDivergence"
              and not (parent_name(i) or "").startswith("hopfield."))
    put("hopfield.divergences", div / per, len(hop))
    for key in ("core.validate_calls", "core.ansatz_builds"):
        put(key, tracer.counts[key] / per, tracer.counts[key])

    solves, starts = by_name["solver.solve"], by_name["solver.start"]
    maps = by_name["sk.map"] + by_name["hopfield.map"]
    per_start = Counter(spans[i][PARENT] for i in maps
                        if parent_name(i) == "solver.start")
    converged = sum(1 for i in starts if (spans[i][ATTRS] or {}).get("converged"))
    branches = sum((spans[i][ATTRS] or {}).get("branches", 0) for i in solves)
    stat = by_name["solver.stationarity"]
    pressures = by_name["sk.pressure"] + by_name["hopfield.pressure"]
    put("solver.solves", len(solves) / per, len(solves))
    put("solver.starts", len(starts) / per, len(starts))
    put("solver.map_evals", sum(per_start.values()) / per, len(starts))
    put("solver.map_evals_per_start.p50",
        _pct([per_start.get(i, 0) for i in starts], 50), len(starts))
    put("solver.converged_start_frac",
        converged / len(starts) if starts else 0.0, len(starts))
    put("solver.distinct_branch_frac",
        branches / converged if converged else 0.0, converged)
    put("solver.stationarity_s", total("solver.stationarity") / per, len(stat))
    put("solver.stationarity_pressure_evals",
        sum(1 for i in pressures if parent_name(i) == "solver.stationarity")
        / per, len(stat))
    put("solver.self_s", sum(total(n, True) for n in
                             ("solver.solve", "solver.start",
                              "solver.stationarity")) / per, len(solves))
    solve_ms = [dur(i) * 1e3 for i in solves]
    put("solver.solve_p50_ms", _pct(solve_ms, 50), len(solve_ms))
    put("solver.solve_p90_ms", _pct(solve_ms, 90), len(solve_ms))

    cli = by_name["cli.main"]
    put("cli.sweep_s", total("cli.main") / per, len(cli))
    put("cli.self_s", total("cli.main", True) / per, len(cli))

    def rate(name):
        idx = by_name[name]
        busy = sum(dur(i) for i in idx)
        work = sum(spans[i][ATTRS]["work"] for i in idx)
        return (work / busy if busy else 0.0), busy, len(idx)

    gray, enum_busy, n_enum = rate("oracle.enumerate")
    put("oracle.gray_states_per_s", gray, n_enum)
    put("oracle.enum_busy_s", enum_busy / per, n_enum)
    flips, _, n_metro = rate("oracle.metropolis")
    put("oracle.metropolis_flips_per_s", flips, n_metro)
    hflips, _, n_hist = rate("oracle.histogram")
    put("oracle.histogram_flips_per_s", hflips, n_hist)
    interp, interp_busy, n_interp = rate("oracle.interpolation")
    put("oracle.interp_samples_per_s", interp, n_interp)
    put("oracle.interp_busy_s", interp_busy / per, n_interp)

    items = by_name["bench.item"]
    put("trace.overhead_frac", overhead_frac, passes)
    put("trace.unattributed_s", total("bench.item", True) / per, len(items))
    return out, extra
