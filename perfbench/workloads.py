"""The four seeded workloads: their inputs, the timed call per item, the
cache warm-up and the output checks.

Every workload draws its inputs from ``--seed`` only, calls the package
through the module attribute its users would reach (so the traced run
can wrap it there) and checks each output against the benchmark's own
references in ``reference.py``.  ``check`` returns the list of problems
of one item; an empty list means the item passed.
"""

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

DEFAULT_SEED = 0
PINS = Path(__file__).with_name("pins.json")


@dataclass(frozen=True)
class Item:
    label: str
    spec: tuple


def _rng(seed, stream):
    return np.random.default_rng([int(seed), stream])


def _close(a, b, tol):
    return a is not None and b is not None and abs(a - b) <= tol


def load_pins():
    return json.loads(PINS.read_text()) if PINS.exists() else {}


# ---------------------------------------------------------------------------
# rs_sweep: the CLI sweep at k=0, one invocation per grid row

class RsSweep:
    name = "rs_sweep"
    cli = True
    # Grid rows sit away from the critical lines (SK beta ~ 1-1.7 at small
    # j0, some Hopfield rows near the glass and retrieval lines), where a
    # 1 % move of beta changes a row's map evaluations up to tenfold and
    # the per-seed work, not the program, would set the spread.
    BETAS = {"sk": (0.4, 0.5, 0.6, 0.9, 1.9, 2.0, 2.2, 2.4),
             "hopfield": (0.5, 0.7, 1.0, 1.2, 1.3, 1.5, 2.0, 2.3)}
    AXIS = {"sk": ("j0", 0.0, 1.4), "hopfield": ("alpha", 0.01, 0.14)}
    JITTER = 0.005
    STEPS = 8       # points per row
    NODES = 80

    def items(self, seed):
        rng = _rng(seed, 1)
        items = []
        for model, betas in self.BETAS.items():
            axis, lo, hi = self.AXIS[model]
            for i, beta in enumerate(betas):
                u = 1.0 + self.JITTER * rng.uniform(-1.0, 1.0, size=3)
                items.append(Item("%s_row%d" % (model[:3], i), (
                    model, float(beta * u[0]), axis, float(lo * u[1]),
                    float(hi * u[2]))))
        return items

    def argv(self, item, steps=None):
        model, beta, axis, lo, hi = item.spec
        return ["sweep", "--model", model, "--beta", repr(beta),
                "--sweep", "%s=%r:%r:%d" % (axis, lo, hi, steps or self.STEPS),
                "--nodes", str(self.NODES)]

    def call(self, rsb, item, steps=None):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rsb.cli.main.main(self.argv(item, steps), prog_name="rsbsolve",
                              standalone_mode=False)
        return buf.getvalue()

    def warm(self, rsb, items):
        for item in items[:1] + items[-1:]:
            self.call(rsb, item, steps=1)

    def check(self, item, out, seed):
        model, beta, axis, lo, hi = item.spec
        values = [lo + (hi - lo) * i / (self.STEPS - 1) for i in range(self.STEPS)]
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        problems = []
        for v in values:
            mine = [r for r in rows if float(r["beta"]) == beta
                    and float(r[axis]) == v]
            good = [r for r in mine if r["converged"] == "true"]
            if not good:
                problems.append("%s=%r: no converged branch" % (axis, v))
            for r in good:
                problems += self._check_branch(model, beta, axis, v, r)
        if len(rows) < len(values):
            problems.append("%d rows for %d points" % (len(rows), len(values)))
        return problems

    def _check_branch(self, model, beta, axis, v, r):
        m, q, pr = float(r["m"]), float(r["q1"]), float(r["pressure"])
        params = (beta, v, 1.0) if model == "sk" else (beta, v)
        where = "%s=%r branch %s" % (axis, v, r["branch"])
        try:
            mn, qn = ref.flat_map(model, params, m, q, self.NODES)
            want = ref.pressure(model, params, m, [q], [], self.NODES)
        except ref.Inadmissible as exc:
            return ["%s: inadmissible point (%s)" % (where, exc)]
        problems = []
        if max(abs(mn - m), abs(qn - q)) > 1e-8:
            problems.append("%s: not a fixed point (%.3g)" % (
                where, max(abs(mn - m), abs(qn - q))))
        if abs(pr - want) > 1e-8:
            problems.append("%s: pressure off by %.3g" % (where, pr - want))
        if model == "hopfield":
            p = ref.hop_conjugates(beta, [q], [])[0][0]
            if abs(float(r["p1"]) - p) > 1e-8 * max(1.0, abs(p)):
                problems.append("%s: conjugate plateau off" % where)
        return problems

    def fingerprint(self, out):
        return out


# ---------------------------------------------------------------------------
# rsb_solve: solve_model at k=1 and k=2 around the acceptance grid

class RsbSolve:
    name = "rsb_solve"
    cli = False
    # (model, params, thetas, nodes per level); the first is the slow
    # pairwise point of the acceptance grid (~2.9k map evaluations a
    # start).  Costs run ~0.15, 0.3, 0.4, 0.9, 1.5, 2.5 and 3.3 s, so the
    # median item is the k=1 SK solve at beta=1.4, well apart from its
    # neighbours: long k=2 solves on the 24-node grid vary most with the
    # machine's load.
    BASE = [
        ("sk", (1.1, 0.6, 1.0), (0.5,), 80),
        ("sk", (1.4, 0.0, 1.0), (0.4,), 80),
        ("hopfield", (1.2, 0.1), (0.3,), 80),
        ("hopfield", (1.4, 0.06), (0.6,), 80),
        ("hopfield", (1.6, 0.08), (0.5,), 80),
        ("sk", (2.0, 0.3, 1.0), (0.3, 0.6), 24),
        ("hopfield", (1.2, 0.1), (0.25, 0.6), 24),
    ]
    # Near the slow point the map's contraction rate, and with it the
    # number of evaluations, moves ~15x faster than beta, so the seeded
    # jitter stays small enough to keep the work per seed comparable.
    JITTER = (0.001, 0.002, 0.001)

    def items(self, seed):
        rng = _rng(seed, 2)
        items = []
        for i, (model, params, thetas, nodes) in enumerate(self.BASE):
            u = rng.uniform(-1.0, 1.0, size=3) * self.JITTER
            params = (float(params[0] * (1.0 + u[0])),
                      float(params[1] * (1.0 + u[1]))) + params[2:]
            thetas = tuple(float(t + u[2]) for t in thetas)
            items.append(Item("%s_k%d_%d" % (model, len(thetas), i),
                              (model, params, thetas, nodes)))
        return items

    def _params(self, rsb, model, params):
        if model == "sk":
            return rsb.core.SkParams(beta=params[0], j0=params[1], j=params[2])
        return rsb.core.HopfieldParams(beta=params[0], alpha=params[1])

    def call(self, rsb, item):
        model, params, thetas, nodes = item.spec
        reports = rsb.solver.solve_model(
            model, self._params(rsb, model, params), k=len(thetas),
            thetas=thetas, spec=rsb.core.QuadratureSpec(nodes_per_level=nodes))
        return [(r.converged, r.ansatz.m, tuple(r.ansatz.qs), r.pressure,
                 r.stationarity) for r in reports]

    def warm(self, rsb, items):
        for item in items:
            model, params, thetas, nodes = item.spec
            a = rsb.core.RsbAnsatz(k=len(thetas), m=0.5,
                                   qs=np.linspace(0.3, 0.6, len(thetas) + 1),
                                   thetas=thetas)
            spec = rsb.core.QuadratureSpec(nodes_per_level=nodes)
            mapping = rsb.sk.sk_sce_krsb if model == "sk" else rsb.hopfield.hop_sce_krsb
            mapping(self._params(rsb, model, params), a, spec)

    def check(self, item, out, seed):
        model, params, thetas, nodes = item.spec
        branches = [b for b in out if b[0]]
        if not branches:
            return ["no converged branch"]
        problems = []
        for i, (_, m, qs, pressure, stat) in enumerate(branches):
            if stat is None or stat > 1e-5:
                problems.append("branch %d: reported stationarity %r" % (i, stat))
            try:
                want = ref.pressure(model, params, m, list(qs), thetas, nodes)
                own = ref.stationarity(model, params, m, list(qs), thetas, nodes)
            except ref.Inadmissible as exc:
                problems.append("branch %d: inadmissible (%s)" % (i, exc))
                continue
            if not _close(pressure, want, 1e-9):
                problems.append("branch %d: pressure %r, reference %r"
                                % (i, pressure, want))
            if own > 1e-5:
                problems.append("branch %d: reference gradient %.3g" % (i, own))
        if seed == DEFAULT_SEED:
            pinned = load_pins().get(self.name, {}).get(item.label)
            got = self.pin(out)
            if pinned is None or len(pinned) != len(got) or any(
                    abs(a - b) > 1e-9 for x, y in zip(pinned, got)
                    for a, b in zip(x, y)):
                problems.append("branch set differs from the pinned reference")
        return problems

    def fingerprint(self, out):
        return repr(out)

    def pin(self, out):
        return [[m] + list(qs) + [p] for c, m, qs, p, _ in out if c]


# ---------------------------------------------------------------------------
# pressure_landscape: pressure evaluations without the solver, k = 0..3

class PressureLandscape:
    name = "pressure_landscape"
    cli = False
    # per model and depth: (random points, collapse points).  The k=2
    # calls (~13 ms, bound by the 512k-point grid) hold the middle of the
    # cost order, so item_p50_ms is one of them and not a sub-millisecond
    # k<=1 call whose time is mostly interpreter noise.
    PLAN = {0: (8, 0), 1: (8, 2), 2: (22, 2), 3: (6, 2)}
    REF_NODES = {0: (80, 64), 1: (80, 64), 2: (80, 64), 3: (32, 28)}
    RS_NODES = 80

    def items(self, seed):
        rng = _rng(seed, 3)
        items = []
        for model in ("sk", "hopfield"):
            for k, (free, collapse) in self.PLAN.items():
                for i in range(free + collapse):
                    params, m, qs, thetas = self._draw(rng, model, k)
                    if i >= free:
                        qs = (qs[-1],) * (k + 1)
                    items.append(Item("%s_k%d_%s%d" % (
                        model, k, "collapse" if i >= free else "p", i),
                        (model, params, m, qs, thetas, i >= free)))
        return items

    @staticmethod
    def _draw(rng, model, k):
        while True:
            if model == "sk":
                params = tuple(rng.uniform((0.3, 0.0, 0.6), (1.2, 0.8, 1.2)).tolist())
            else:
                params = tuple(rng.uniform((0.3, 0.02), (1.2, 0.3)).tolist())
            m = float(rng.uniform(-0.9, 0.9))
            qs = tuple(np.sort(rng.uniform(0.05, 0.95, size=k + 1)).tolist())
            thetas = tuple(np.sort(rng.uniform(0.05, 0.95, size=k)).tolist())
            if any(b - a < 0.05 for a, b in zip(thetas, thetas[1:])):
                continue
            if model == "hopfield":
                try:
                    if min(ref.hop_denominators(params[0], qs, thetas)) < 0.25:
                        continue
                    if min(ref.hop_denominators(params[0], (qs[-1],) * (k + 1),
                                                thetas)) < 0.25:
                        continue
                except ref.Inadmissible:
                    continue
            return params, m, qs, thetas

    def call(self, rsb, item):
        model, params, m, qs, thetas, _ = item.spec
        ansatz = rsb.core.RsbAnsatz(k=len(thetas), m=m, qs=qs, thetas=thetas)
        if model == "sk":
            p = rsb.core.SkParams(beta=params[0], j0=params[1], j=params[2])
            return float(rsb.sk.sk_pressure_krsb(p, ansatz).pressure)
        p = rsb.core.HopfieldParams(beta=params[0], alpha=params[1])
        return float(rsb.hopfield.hop_pressure_krsb(p, ansatz).pressure)

    def warm(self, rsb, items):
        seen = set()
        for item in items:
            key = (item.spec[0], len(item.spec[4]))
            if key not in seen:
                seen.add(key)
                self.call(rsb, item)

    def check(self, item, out, seed):
        model, params, m, qs, thetas, collapse = item.spec
        k = len(thetas)
        if collapse:
            # equal plateaus make every inner level an identity, so the
            # flat value on a fine one-level rule is the exact reference
            flat = ref.pressure(model, params, m, [qs[0]], [], self.RS_NODES)
            return [] if _close(out, flat, 1e-9) else [
                "collapse: %r vs flat %r" % (out, flat)]
        hi, lo = (ref.pressure(model, params, m, list(qs), thetas, n)
                  for n in self.REF_NODES[k])
        if abs(hi - lo) > 1e-8:
            raise UnsettledReference("%s: tensor references at %r nodes disagree "
                                     "by %.3g" % (item.label, self.REF_NODES[k],
                                                  hi - lo))
        return [] if _close(out, hi, 1e-8) else [
            "pressure %r, %d-node tensor reference %r"
            % (out, self.REF_NODES[k][0], hi)]

    def fingerprint(self, out):
        return repr(out)


# ---------------------------------------------------------------------------
# finite_size: the oracles, without quadrature or solver

def _stat_bound(fd, bracket, stderr, rel_tol=1e-2, sigmas=4.0):
    # the bound the verify command uses for Monte Carlo identities
    return max(rel_tol * max(abs(fd), abs(bracket)), sigmas * stderr)


class UnsettledReference(RuntimeError):
    """The benchmark's own references disagree, so the item cannot be
    judged; the run reports correct=false."""


class FiniteSize:
    name = "finite_size"
    cli = False
    SK_BETA = 0.3
    HOP_BETA = 0.5
    RETRIEVAL = (2.0, 0.01)
    # (label, oracle, call arguments).  The five 200-sample identity
    # checks (~0.15 s each) hold the middle of the cost order, so
    # item_p50_ms compares like with like from run to run.
    PLAN = [
        ("enum_sk", "enumerate_sk_pressure", dict(n=16, samples=2)),
        ("enum_hop", "enumerate_hopfield_pressure", dict(n=16, samples=1, p=1)),
        ("metro_hop", "metropolis_run", dict(n=600, sweeps=100)),
        ("metro_sk", "metropolis_run", dict(n=200, sweeps=100)),
        ("hist_para", "overlap_histogram", dict(n=256, sweeps=200,
                                                disorder_samples=1)),
        ("hist_ferro", "overlap_histogram", dict(n=100, sweeps=100,
                                                 disorder_samples=1)),
        ("interp_sk_t", "interp", ("sk_rs", "t", 200)),
        ("interp_sk_x", "interp", ("sk_rs", "x", 200)),
        ("interp_sk_w", "interp", ("sk_rs", "w", 16)),
        ("interp_sk_w0", "interp", ("sk_rs0", "w", 8)),
        ("interp_1rsb_x1", "interp", ("sk_1rsb", "x1", 100)),
        ("interp_1rsb_x2", "interp", ("sk_1rsb", "x2", 100)),
        ("interp_1rsb_w", "interp", ("sk_1rsb", "w", 16)),
        ("interp_hop_t", "interp", ("hop_rs", "t", 200)),
        ("interp_hop_x", "interp", ("hop_rs", "x", 200)),
        ("interp_hop_y", "interp", ("hop_rs", "y", 200)),
        ("interp_hop_z", "interp", ("hop_rs", "z", 16)),
        ("interp_hop_w", "interp", ("hop_rs", "w", 16)),
    ]
    STATISTICAL = {"t", "x", "y", "x1", "x2"}

    def items(self, seed):
        rng = _rng(seed, 4)
        return [Item(label, (oracle, args, int(rng.integers(0, 2 ** 31))))
                for label, oracle, args in self.PLAN]

    def _interp(self, rsb, case, target, samples, oseed):
        o, c = rsb.oracle, rsb.core
        if case in ("sk_rs", "sk_rs0"):
            pt = (o.InterpolationPoint(t=0.5, x=(0.4,), w=0.3) if case == "sk_rs"
                  else o.InterpolationPoint(t=0.0, x=(0.0,), w=0.3))
            return o.interpolation_derivative_check(
                "sk", target, pt, c.SkParams(beta=1.0, j0=0.8, j=1.0), n=6,
                samples=samples, seed=oseed)
        if case == "sk_1rsb":
            return o.interpolation_derivative_check(
                "sk", target, o.InterpolationPoint(t=0.5, x=(0.4, 0.25), w=0.3),
                c.SkParams(beta=1.2, j0=0.7, j=1.0), n=6, samples=samples,
                seed=oseed, thetas=(0.5,))
        return o.interpolation_derivative_check(
            "hopfield", target,
            o.InterpolationPoint(t=0.5, x=(0.5,), y=(0.6,), z=0.3, w=0.3),
            c.HopfieldParams(beta=0.6, alpha=0.5), n=6, samples=samples,
            seed=oseed, p=3)

    def call(self, rsb, item):
        oracle, args, oseed = item.spec
        o, c = rsb.oracle, rsb.core
        if oracle == "interp":
            d = self._interp(rsb, *args, oseed)
            return (d.fd_lhs, d.bracket_rhs, d.abs_diff, d.stderr)
        if oracle == "enumerate_sk_pressure":
            e = o.enumerate_sk_pressure(c.SkParams(beta=self.SK_BETA), seed=oseed,
                                        **args)
            return (e.value, e.stderr)
        if oracle == "enumerate_hopfield_pressure":
            e = o.enumerate_hopfield_pressure(
                c.HopfieldParams(beta=self.HOP_BETA, alpha=1.0 / args["n"]),
                seed=oseed, **args)
            return (e.value, e.stderr)
        if oracle == "metropolis_run":
            params = (c.HopfieldParams(beta=self.RETRIEVAL[0],
                                       alpha=self.RETRIEVAL[1])
                      if item.label == "metro_hop" else c.SkParams(beta=0.5))
            r = o.metropolis_run(params, seed=oseed, **args)
            return (r.overlap.value, r.overlap.stderr, r.energy.value,
                    r.energy.stderr)
        params = (c.SkParams(beta=0.0) if item.label == "hist_para"
                  else c.SkParams(beta=2.0, j0=3.0, j=0.0))
        h = o.overlap_histogram(params, seed=oseed, **args)
        return (h.mean, h.std, h.mode_center, float(h.edges[1] - h.edges[0]),
                tuple(int(x) for x in h.counts))

    def warm(self, rsb, items):
        o, c = rsb.oracle, rsb.core
        o.enumerate_sk_pressure(c.SkParams(beta=0.3), n=4)
        self._interp(rsb, "sk_rs", "t", 1, 0)

    def check(self, item, out, seed):
        problems = self._bands(item, out)
        if seed == DEFAULT_SEED:
            pinned = load_pins().get(self.name, {}).get(item.label)
            if pinned != json.loads(json.dumps(out)):
                problems.append("differs from the pinned seeded value")
        return problems

    def _bands(self, item, out):
        oracle, args, _ = item.spec
        if oracle == "interp":
            fd, br, diff, stderr = out
            target = args[1]
            if target in self.STATISTICAL:
                bound = _stat_bound(fd, br, stderr)
            else:
                bound = 1e-10 if args[0] == "sk_rs0" else 1e-8
            ok = diff <= bound and math.isfinite(diff)
            return [] if ok else ["identity off by %.3g > %.3g" % (diff, bound)]
        if oracle == "enumerate_sk_pressure":
            value, stderr = out
            want = math.log(2.0) + self.SK_BETA ** 2 / 4.0
            bound = 3.0 * stderr + 0.02
            return [] if abs(value - want) <= bound else [
                "high-temperature band: %r vs %r" % (value, want)]
        if oracle == "enumerate_hopfield_pressure":
            want = ref.curie_weiss_log_partition(self.HOP_BETA, args["n"])
            return [] if abs(out[0] - want) <= 1e-10 else [
                "one-pattern enumeration %r, exact %r" % (out[0], want)]
        if oracle == "metropolis_run":
            ov, ov_se, en, en_se = out
            if item.label == "metro_hop":
                want = ref.hop_retrieval_overlap(*self.RETRIEVAL)
                ok = abs(ov - want) <= 0.05 + 3.0 * ov_se
                return [] if ok else ["retrieval overlap %r vs %r" % (ov, want)]
            n, beta = args["n"], 0.5
            want = -0.5 * beta * (n - 1) / n
            problems = []
            if abs(en - want) > 0.03 + 4.0 * en_se:
                problems.append("paramagnet energy %r vs %r" % (en, want))
            if abs(ov) > 0.1 + 4.0 * ov_se:
                problems.append("paramagnet magnetization %r" % ov)
            return problems
        mean, std, mode, width, _ = out
        if item.label == "hist_para":
            problems = []
            if abs(mode) > 1.5 * width:
                problems.append("paramagnet mode at %r" % mode)
            if abs(std * math.sqrt(args["n"]) - 1.0) > 0.25:
                problems.append("paramagnet overlap std %r" % std)
            return problems
        return [] if 1.0 - mode <= width else ["ferromagnet mode at %r" % mode]

    def fingerprint(self, out):
        return repr(out)

    def pin(self, out):
        return json.loads(json.dumps(out))


WORKLOADS = {w.name: w for w in (RsSweep(), RsbSolve(), PressureLandscape(),
                                 FiniteSize())}
