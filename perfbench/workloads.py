"""The three workloads: ball-solve, cli-cold and halfplane.

Every run attempts whole rounds of the same operations until its timed
work reaches --seconds, then stops. Only the operations are timed; the
checks against refs.py run between them, outside the timed region.
An operation fails when it raises or its output misses the reference.
The only failures allowed are the known-fault operations of halfplane
(see README.md); any other failure makes the run incorrect.

refs is imported inside functions: it loads mpmath, which must not be
loaded before the timed `import gsmoment` of an in-process workload.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

import inputs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = {"ball-solve": 2, "cli-cold": 3}
CLI_SCALE = 1.0           # degree-8 unit-ball targets of the solve calls
ATOM_POINTS = 4           # halfplane points per atom and region
HALFPLANE_RTOL = 1e-6     # float path against the closed form
HALFPLANE_MP_RTOL = 1e-8  # eval_mp at 30 digits against the closed form


class Run:
    """Operation log of one run."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.times = []
        self.labels = []
        self.by_kind = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.known_faults = []
        self.unexpected = []
        self.setup_samples = []
        self.peak_rss_mb = None

    @property
    def timed(self):
        return sum(self.times)

    def op(self, kind, label, fn, check, known_fault=False, span=None):
        """Time fn(), then check its output. With a span name, a traced
        run also records the operation itself as a span."""
        if self.tracer is not None:
            self.tracer.op = "%s#%d" % (kind, self.attempted)
        t0 = perf_counter()
        try:
            out, err = fn(), None
        except Exception as exc:  # a refusal counts as a failed operation
            out, err = None, exc
        dt = perf_counter() - t0
        if span is not None and self.tracer is not None:
            self.tracer.record(span, t0, t0 + dt)
        self.times.append(dt)
        self.labels.append(label)
        self.by_kind[kind].append(dt)
        self.attempted += 1
        if err is not None:
            problem = "raised %s: %s" % (type(err).__name__, err)
        else:
            try:
                problem = check(out)
            except Exception as exc:
                problem = "check raised %s: %s" % (type(exc).__name__, exc)
        if problem is not None:
            self.failed += 1
            entry = {"kind": kind, "op": label, "problem": problem}
            (self.known_faults if known_fault
             else self.unexpected).append(entry)

    def setup_problem(self, label, problem):
        if problem is not None:
            self.unexpected.append({"kind": "setup", "op": label,
                                    "problem": problem})

    def end_to_end(self):
        n = len(self.times)
        return {
            "setup_s": {"value": statistics.median(self.setup_samples),
                        "unit": "s"},
            "op_p50_s": {"value": statistics.median(self.times), "unit": "s"},
            "ops_per_s": {"value": n / self.timed, "unit": "ops/s"},
            "peak_rss_mb": {"value": self.peak_rss_mb, "unit": "MB"},
        }

    def timings(self):
        out = {"op": tracing.summarize(self.times),
               "setup": tracing.summarize(self.setup_samples)}
        for kind, vals in sorted(self.by_kind.items()):
            out["op." + kind] = tracing.summarize(vals)
        return out


def _self_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _children_rss_mb():
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _child_env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    return env


def _probe_setup(workload):
    """One more set-up in a fresh interpreter; its wall seconds."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "setup", workload],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=120)
    if proc.returncode != 0:
        raise RuntimeError("set-up probe failed: %s" % proc.stderr[-2000:])
    return float(proc.stdout.strip().splitlines()[-1])


def import_gsmoment(tracer):
    t0 = perf_counter()
    import gsmoment
    t1 = perf_counter()
    where = os.path.realpath(gsmoment.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError("gsmoment resolved outside this checkout: %s"
                          % where)
    if tracer is not None:
        tracer.record("import.gsmoment", t0, t1)
        tracer.install()
    return gsmoment


# ------------------------------------------------------------ ball-solve

def ball_setup(gm):
    """Weights plus warm solver state: the gamma2 gate verdict and the
    Gram values of the degree-12 rungs, from one unverified solve of a
    fixed target."""
    ws = gm.gevrey(inputs.BALL_ALPHA, horizon=inputs.BALL_HORIZON)
    warm = inputs.ball_entries(inputs.stream("warm-up"))
    gm.solve_moments(gm.SequenceTarget(warm, h=inputs.BALL_SCALE), ws,
                     tolerance=inputs.BALL_TOLERANCE, verify=False)
    return ws


def _check_solution_moments(sol, entries, tolerance):
    import refs
    moments = refs.solution_moments(sol.coefficients, 2 * sol.precision_bits)
    worst = max(refs.relative_gap(m, a) for m, a in zip(moments, entries))
    if worst > tolerance:
        return "moment off the target by %.3e (tolerance %.1e)" % (
            worst, tolerance)
    return None


def run_ball_solve(seed, seconds, tracer, t_start):
    run = Run(tracer)
    gm = import_gsmoment(tracer)
    ws = ball_setup(gm)
    run.setup_samples.append(perf_counter() - t_start)
    tol = inputs.BALL_TOLERANCE

    def check(out, entries):
        sol, profile = out
        problem = _check_solution_moments(sol, entries, tol)
        if problem is None and max(sol.residuals) > tol:
            problem = "reported residual %.3e" % max(sol.residuals)
        if problem is None and not (profile["all_finite"]
                                    and len(profile["cells"]) == 12):
            problem = "membership profile not finite"
        return problem

    i = 0
    while run.timed < seconds:  # a round is one target
        entries = inputs.ball_entries(inputs.stream(seed, "ball", i))
        target = gm.SequenceTarget(entries, h=inputs.BALL_SCALE)

        def solve_and_profile(target=target):
            sol = gm.solve_moments(target, ws, tolerance=tol)
            return sol, gm.membership_report(sol.function, ws)
        run.op("solve", "target %d" % i, solve_and_profile,
               lambda out, entries=entries: check(out, entries))
        i += 1
    run.peak_rss_mb = _self_rss_mb()
    for _ in range(SETUP_PROBES["ball-solve"]):
        run.setup_samples.append(_probe_setup("ball-solve"))
    return run


# ------------------------------------------------------------- halfplane

def run_halfplane(seed, seconds, tracer, t_start):
    run = Run(tracer)
    gm = import_gsmoment(tracer)
    ws = gm.gevrey(inputs.BALL_ALPHA, horizon=inputs.BALL_HORIZON)
    ball = inputs.ball_entries(
        inputs.stream(inputs.HALFPLANE_SOURCE_SEED, "halfplane-source"))
    sol12 = gm.solve_moments(gm.SequenceTarget(ball, h=inputs.BALL_SCALE),
                             ws, tolerance=inputs.BALL_TOLERANCE,
                             verify=False)
    jet = inputs.jet_entries(inputs.stream(seed, "jet"))
    br = gm.borel_ritt_solve(jet, ws, h=1.0,
                             tolerance=inputs.JET_TOLERANCE)
    atoms = [gm.HalfPlaneFunction(gm.flat(k)) for k in range(5)]
    f12 = gm.HalfPlaneFunction(sol12)
    run.setup_samples.append(perf_counter() - t_start)
    import refs

    # the sources themselves, against the Bessel reference
    run.setup_problem("degree-12 source", _check_solution_moments(
        sol12, ball, inputs.BALL_TOLERANCE))
    moments = refs.solution_moments(br.solution.coefficients,
                                    2 * br.solution.precision_bits)
    gap = max(refs.relative_gap(1j ** p * m, a)
              for p, (m, a) in enumerate(zip(moments, jet)))
    run.setup_problem("borel-ritt jet", None if gap <= inputs.JET_TOLERANCE
                      else "jet off by %.3e" % gap)

    c12 = list(sol12.coefficients)
    cbr = list(br.solution.coefficients)
    sources = [("atom%d" % k, atoms[k], [1.0], [k]) for k in range(5)]
    f12_src = ("degree-12", f12, c12, list(range(len(c12))))
    br_src = ("borel-ritt", br.function, cbr, list(range(len(cbr))))

    def evaluation(src, z, p, use_mp, known_fault=False):
        name, f, coeffs, powers = src
        kind = ("eval_mp" if use_mp else
                "atom" if name.startswith("atom") else "solution")
        if use_mp:
            fn = lambda: complex(f.eval_mp(z, p))
            rtol = HALFPLANE_MP_RTOL
        else:
            fn = lambda: f.eval_derivative(z, p)
            rtol = HALFPLANE_RTOL

        def check(got):
            want = refs.halfplane_value(coeffs, powers, z, p)
            err = abs(got - want) / abs(want)
            if not err <= rtol:
                return "%s f^(%d)(%r): relative error %.3e" % (
                    name, p, z, err)
            return None
        run.op(kind, "%s p=%d z=%r" % (name, p, z), fn, check, known_fault)

    # The seed draws the points; the orders follow a fixed schedule, so
    # every round covers p = 0..8 evenly in each region. The round runs
    # in a shuffled order, so that a slow spell of the machine does not
    # fall on one kind of evaluation.
    r = 0
    while run.timed < seconds:
        rng = inputs.stream(seed, "halfplane", r)
        todo = []
        for ri, region in enumerate(inputs.REGIONS):
            for k, src in enumerate(sources):
                for j in range(ATOM_POINTS):
                    todo.append((src, inputs.point(rng, region),
                                 (ATOM_POINTS * k + j + 3 * ri)
                                 % (inputs.MAX_ORDER + 1),
                                 False))
            todo.append((br_src, inputs.point(rng, region), 2 * ri + 2, False))
        todo.append((f12_src, inputs.point(rng, "oscillatory"), 3, False))
        todo.append((f12_src, inputs.point(rng, "spike"), 7, False))
        todo.append((f12_src, inputs.point(rng, "near"), 0, True))
        todo.append((br_src, inputs.point(rng, "moderate"), 5, True))
        todo.append((sources[2], inputs.point(rng, "moderate"), 3, True))
        todo.extend((f12_src, z, 0, False, True)
                    for z in inputs.BOUNDARY_FAULT_POINTS)
        rng.shuffle(todo)
        for spec in todo:
            evaluation(*spec)
        r += 1
    run.peak_rss_mb = _self_rss_mb()
    return run


# -------------------------------------------------------------- cli-cold

def _solve_check(entries, tolerance, extra):
    import refs

    def check(payload):
        moments = refs.solution_moments(payload["coefficients"],
                                        2 * payload["precision_bits"])
        worst = max(refs.relative_gap(m, a) for m, a in zip(moments, entries))
        if worst > tolerance:
            return "moment off the target by %.3e" % worst
        if max(payload["residuals"]) > tolerance:
            return "reported residual %.3e" % max(payload["residuals"])
        if payload["gate"]["verdict"] != "Holds":
            return "gate verdict %s" % payload["gate"]["verdict"]
        return extra(payload)
    return check


def _verdicts_check(kind, param, verdicts):
    import refs
    for cond, got in verdicts.items():
        want = refs.expected_verdict(kind, param, cond)
        if got != want:
            return "%s(%g) %s: %s, theory says %s" % (kind, param, cond,
                                                      got, want)
    return None


def _seminorm_check(atoms, alpha, h, cap):
    import refs

    def log_weight(p):
        return alpha * math.lgamma(p + 1)

    def check(payload):
        where = payload["argmax"]
        at = refs.log_weighted_derivative(
            atoms, where["argmax_x"], where["argmax_m"], log_weight, h, 4096)
        if abs(at - payload["log_value"]) > 1e-6:
            return "value at its own argmax: %.9g, reference %.9g" % (
                payload["log_value"], at)
        for i in range(12):
            x = 0.02 * 2500.0 ** (i / 11.0)
            for m in range(cap + 1):
                v = refs.log_weighted_derivative(atoms, x, m, log_weight, h,
                                                 4096)
                if v > payload["log_value"] + 1e-3:
                    return "sup %.6g exceeded at x=%g, m=%d: %.6g" % (
                        payload["log_value"], x, m, v)
        return None
    return check


def _moments_check(atoms, max_order):
    import mpmath
    import refs

    def check(payload):
        cs = [mpmath.mpc(re_, im_) for _, re_, im_ in atoms]
        ks = [k for k, _, _ in atoms]
        # fold keeps the half-line moments; sqrt_sub maps mu_p to 2 mu_{2p+1}
        want = refs.flat_moments(cs, ks, [2 * p + 1
                                          for p in range(max_order + 1)], 200)
        got = payload["moments"]
        if len(got) != max_order + 1 or payload["applied"] != [
                "fold", "sqrt_sub"]:
            return "unexpected payload shape"
        for p, (g, w) in enumerate(zip(got, want)):
            gap = refs.relative_gap(complex(*g), 2 * w)
            if gap > 1e-10:
                return "moment %d off by %.3e" % (p, gap)
        return None
    return check


def cli_mix(seed, r):
    """The fixed mix of one round: (subcommand, arguments, check)."""
    import refs
    rng = inputs.stream(seed, "cli", r)
    mix = []

    def classify(kind, param, weight):
        def check(payload):
            return _verdicts_check(kind, param, {
                c: rep["verdict"] for c, rep in payload["reports"].items()})
        mix.append(("classify", ["--weight", weight], check))

    alpha = rng.choice(inputs.GEVREY_ALPHAS)
    classify("gevrey", alpha, inputs.weight_json("gevrey", alpha))
    q = rng.choice(inputs.QGEVREY_BASES)
    classify("qgevrey", q, inputs.weight_json("qgevrey", q))
    alpha = rng.choice(inputs.GEVREY_ALPHAS)
    classify("gevrey", alpha, inputs.expr_weight_json(alpha))

    kind, param = rng.choice([("gevrey", a) for a in inputs.GEVREY_ALPHAS]
                             + [("qgevrey", b) for b in inputs.QGEVREY_BASES])
    want = refs.expected_transfers(kind, param)
    mix.append(("interpolate", ["--weight", inputs.weight_json(kind, param)],
                lambda payload, want=want: None if payload["transfers"] == want
                else "transfers %r, theory says %r" % (payload["transfers"],
                                                       want)))

    atoms = inputs.flat_atoms(rng)
    alpha = rng.choice((2.5, 3.0, 4.0))
    h = rng.choice((0.5, 1.0, 2.0))
    mix.append(("seminorm", ["--weight", inputs.weight_json("gevrey", alpha),
                             "--function", inputs.atoms_json(atoms),
                             "--order-cap", "4", "--scale", repr(h)],
                _seminorm_check(atoms, alpha, h, 4)))

    atoms = inputs.flat_atoms(rng)
    mix.append(("moments", ["--function", inputs.atoms_json(atoms),
                            "--max-order", "8", "--apply", "fold",
                            "--apply", "sqrt_sub"],
                _moments_check(atoms, 8)))

    g3 = inputs.weight_json("gevrey", 3.0)
    tol = 1e-6
    for flag, extra in (
            (["--membership"],
             lambda pl: None if pl["membership"]["all_finite"]
             else "membership profile not finite"),
            (["--reduction"],
             lambda pl: None if (max(pl["reduction"]["residuals"]) <= tol
                                 and pl["reduction"]["even_degree"] == 4
                                 and pl["reduction"]["odd_degree"] == 3)
             else "reduction %r" % pl["reduction"]),
            (["--precision", "400"],
             lambda pl: None if pl["precision_bits"] >= 400
             else "precision %d bits" % pl["precision_bits"])):
        entries = inputs.ball_entries(rng, degree=8, h=CLI_SCALE)
        mix.append(("solve", ["--weight", g3, "--target",
                              inputs.target_json(entries, CLI_SCALE)]
                    + flag, _solve_check(entries, tol, extra)))

    jet = inputs.jet_entries(rng)

    def jet_check(payload, jet=jet):
        sol = payload["solution"]
        moments = refs.solution_moments(sol["coefficients"],
                                        2 * sol["precision_bits"])
        gap = max(refs.relative_gap(1j ** p * m, a)
                  for p, (m, a) in enumerate(zip(moments, jet)))
        if gap > inputs.JET_TOLERANCE:
            return "boundary jet off by %.3e" % gap
        return None
    mix.append(("borel-ritt", ["--weight", g3,
                               "--entries", inputs.entries_json(jet)],
                jet_check))

    for kind, param in (("gevrey", 3.0), ("qgevrey", 2.0)):
        def verify_check(payload, kind=kind, param=param):
            problem = _verdicts_check(kind, param, payload["classification"])
            if problem:
                return problem
            if set(payload["interpolation"].values()) != {"agree"}:
                return "interpolation %r" % payload["interpolation"]
            if not payload["solve_check"].get("passed"):
                return "solve check %r" % payload["solve_check"]
            return None
        mix.append(("verify", ["--weight", inputs.weight_json(kind, param)],
                    verify_check))
    return mix


def run_cli_cold(seed, seconds, tracer, t_start):
    run = Run(tracer)
    for _ in range(SETUP_PROBES["cli-cold"]):
        run.setup_samples.append(_probe_setup("cli-cold"))
    env = _child_env()
    trace_file = os.path.join(OUT, "cli-trace-%d.json" % os.getpid())
    if tracer is not None:
        os.makedirs(OUT, exist_ok=True)
    r = 0
    while run.timed < seconds:
        for sub, args, check in cli_mix(seed, r):
            if tracer is None:
                cmd = [sys.executable, "-m", "gsmoment.cli", sub] + args
            else:
                cmd = [sys.executable, os.path.join(HERE, "child.py"), "cli",
                       trace_file, sub] + args

            def invoke(cmd=cmd):
                return subprocess.run(cmd, cwd=ROOT, env=env,
                                      capture_output=True, text=True,
                                      timeout=150)

            def check_process(proc, check=check):
                if proc.returncode != 0:
                    return "exit %d: %s" % (proc.returncode,
                                            proc.stderr.strip()[-500:])
                return check(json.loads(proc.stdout))
            run.op(sub, "%s %d" % (sub, r), invoke, check_process,
                   span="cli." + sub)
            if tracer is not None:
                _merge_child_trace(tracer, trace_file)
        r += 1
    run.peak_rss_mb = _children_rss_mb()
    return run


def _merge_child_trace(tracer, path):
    if not os.path.exists(path):
        return
    with open(path, encoding="utf-8") as fh:
        spans = json.load(fh)
    os.remove(path)
    base = len(tracer.spans)
    for rec in spans:
        if rec[tracing.PARENT] is not None:
            rec[tracing.PARENT] += base
        rec[tracing.OP] = tracer.op
        tracer.spans.append(rec)


WORKLOADS = {
    "ball-solve": run_ball_solve,
    "cli-cold": run_cli_cold,
    "halfplane": run_halfplane,
}
