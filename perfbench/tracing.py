"""Spans around calls into gsmoment's public functions.

The wrappers live here, on the benchmark's side of the boundary: each
public function is replaced, in every gsmoment module that imported it,
by a wrapper that records one span (name, start, end, parent span,
operation id). Calls a module makes to its own functions stay untraced,
except solve_moments inside the solver, so that reduction_roundtrip's
solves are seen. Two hot methods are counted instead of spanned. Spans
are kept in memory and written out when the run ends.

Nothing here imports gsmoment; install() works on the loaded modules.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# (defining module, function, span name)
FUNCTIONS = (
    ("weightseq", "make_sequence", "weightseq.make_sequence"),
    ("weightseq", "gevrey", "weightseq.make_sequence"),
    ("weightseq", "q_gevrey", "weightseq.make_sequence"),
    ("conditions", "classify", "conditions.classify"),
    ("conditions", "check_condition", "conditions.check_condition"),
    ("interpolating", "interpolation_agreement",
     "interpolating.interpolation_agreement"),
    ("interpolating", "two_interpolate", "interpolating.two_interpolate"),
    ("atoms", "log_seminorm", "atoms.log_seminorm"),
    ("atoms", "dual_seminorm_pair", "atoms.dual_seminorm_pair"),
    ("transforms", "apply_operator", "transforms.apply_operator"),
    ("solver", "solve_moments", "solver.solve_moments"),
    ("solver", "membership_report", "solver.membership_report"),
    ("solver", "reduction_roundtrip", "solver.reduction_roundtrip"),
    ("solver", "lambda_norm", "solver.lambda_norm"),
    ("halfplane", "borel_ritt_solve", "halfplane.borel_ritt_solve"),
)
PATCH_IN_DEFINING_MODULE = {("solver", "solve_moments")}

# (module, class, method, span or counter name, kind)
METHODS = (
    ("solver", "MomentSolution", "moment_quadrature",
     "solver.moment_quadrature", "span"),
    ("solver", "MomentSolution", "eval_mp", "solver.eval_mp", "count"),
    ("halfplane", "HalfPlaneFunction", "eval_derivative",
     "halfplane.eval_derivative", "span"),
    ("halfplane", "HalfPlaneFunction", "eval_mp", "halfplane.eval_mp", "span"),
    ("atoms", "TestFunction", "eval_derivative", "atoms.eval_derivative",
     "count"),
)

# per-layer metrics: name -> unit; times are medians over their samples
METRICS = {
    "import.gsmoment_s": "s",
    "weightseq.make_sequence_s": "s",
    "conditions.classify_s": "s",
    "conditions.check_condition_s": "s",
    "interpolating.interpolation_agreement_s": "s",
    "solver.solve_moments_self_s": "s",
    "solver.verify_s": "s",
    "solver.moment_quadrature_s": "s",
    "solver.eval_mp_calls": "count",
    "solver.precision_bits": "bits",
    "solver.reduction_roundtrip_self_s": "s",
    "solver.membership_report_s": "s",
    "atoms.log_seminorm_s": "s",
    "atoms.eval_derivative_calls": "count",
    "transforms.apply_operator_s": "s",
    "halfplane.eval_derivative_atom_s": "s",
    "halfplane.eval_derivative_solution_s": "s",
    "halfplane.eval_mp_s": "s",
    "halfplane.borel_ritt_solve_self_s": "s",
    "cli.classify_s": "s",
    "cli.interpolate_s": "s",
    "cli.seminorm_s": "s",
    "cli.moments_s": "s",
    "cli.solve_s": "s",
    "cli.borel-ritt_s": "s",
    "cli.verify_s": "s",
    "cli.main_self_s": "s",
}

# span record fields
NAME, START, END, PARENT, OP, COUNTS, VALUE = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = "setup"

    def _open(self, name):
        parent = self.stack[-1][0] if self.stack else None
        rec = [name, perf_counter(), None, parent, self.op, None, None]
        self.spans.append(rec)
        self.stack.append((len(self.spans) - 1, rec))
        return rec

    def _close(self, rec):
        rec[END] = perf_counter()
        self.stack.pop()

    def call(self, name, fn, *args, **kwargs):
        rec = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(rec)
        if name == "solver.solve_moments":
            rec[VALUE] = result.precision_bits
        return result

    def record(self, name, start, end):
        """A span measured elsewhere (a child process, an import)."""
        self.spans.append([name, start, end, None, self.op, None, None])

    def span_wrapper(self, name, fn, name_of=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if name_of is None else name_of(args[0])
            top = tracer.stack[-1][1] if tracer.stack else None
            if top is not None and top[NAME] == label:
                # make_sequence calling gevrey: one span, not two
                return fn(*args, **kwargs)
            return tracer.call(label, fn, *args, **kwargs)
        return wrapper

    def count_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.stack:
                rec = tracer.stack[-1][1]
                if rec[COUNTS] is None:
                    rec[COUNTS] = defaultdict(int)
                rec[COUNTS][name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Patch the loaded gsmoment modules for the rest of the process."""
        mods = {n: m for n, m in sys.modules.items()
                if n == "gsmoment" or n.startswith("gsmoment.")}
        for home, attr, name in FUNCTIONS:
            defining = mods["gsmoment." + home]
            orig = getattr(defining, attr)
            wrapper = self.span_wrapper(name, orig)
            for mod in mods.values():
                if getattr(mod, attr, None) is not orig:
                    continue
                if mod is defining and (home, attr) \
                        not in PATCH_IN_DEFINING_MODULE:
                    continue
                setattr(mod, attr, wrapper)
        for home, cls_name, meth, name, kind in METHODS:
            cls = getattr(mods["gsmoment." + home], cls_name)
            orig = cls.__dict__[meth]
            if kind == "count":
                wrapper = self.count_wrapper(name, orig)
            elif meth == "eval_derivative":
                wrapper = self.span_wrapper(name, orig, _halfplane_label)
            else:
                wrapper = self.span_wrapper(name, orig)
            setattr(cls, meth, wrapper)

    def dump(self):
        """Spans as JSON-ready lists (counts become plain dicts)."""
        return [rec[:COUNTS] + [dict(rec[COUNTS]) if rec[COUNTS] else None,
                                rec[VALUE]] for rec in self.spans]


def _halfplane_label(fn_self):
    backed = getattr(fn_self, "_solution", None) is not None
    return ("halfplane.eval_derivative_solution" if backed
            else "halfplane.eval_derivative_atom")


def _subtree_count(idx, children, spans, counter):
    rec = spans[idx]
    total = (rec[COUNTS] or {}).get(counter, 0)
    for c in children[idx]:
        total += _subtree_count(c, children, spans, counter)
    return total


def layer_samples(spans):
    """Per-layer samples from a list of span records, each tagged with
    its phase: "setup" or "op" (inside a timed operation).

    Self times subtract the traced children named in the README: solve_moments
    minus its gate check and quadratures, reduction_roundtrip and
    borel_ritt_solve minus their solves, and cli.main minus every library
    call it made."""
    children = defaultdict(list)
    for i, rec in enumerate(spans):
        if rec[PARENT] is not None:
            children[rec[PARENT]].append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    out = defaultdict(list)
    for i, rec in enumerate(spans):
        name, kids = rec[NAME], children[i]
        phase = "setup" if rec[OP] == "setup" else "op"

        def add(metric, value):
            out[metric].append((phase, value))
        if name == "solver.solve_moments":
            add("solver.solve_moments_self_s",
                dur(i) - sum(dur(c) for c in kids))
            quads = [c for c in kids
                     if spans[c][NAME] == "solver.moment_quadrature"]
            if quads:
                add("solver.verify_s", sum(dur(c) for c in quads))
                add("solver.eval_mp_calls",
                    _subtree_count(i, children, spans, "solver.eval_mp"))
            add("solver.precision_bits", rec[VALUE])
        elif name in ("solver.reduction_roundtrip",
                      "halfplane.borel_ritt_solve"):
            add(name + "_self_s", dur(i) - sum(
                dur(c) for c in kids
                if spans[c][NAME] == "solver.solve_moments"))
        elif name == "cli.main":
            add("cli.main_self_s", dur(i) - sum(dur(c) for c in kids))
        else:
            add(name + "_s", dur(i))
            if name.startswith("halfplane.eval_derivative"):
                add("atoms.eval_derivative_calls",
                    (rec[COUNTS] or {}).get("atoms.eval_derivative", 0))
    return out


def summarize(values):
    """Median, sample count and, from 40 samples on, the highest
    percentile with at least ten samples beyond it."""
    n = len(values)
    out = {"n": n, "p50": statistics.median(values) if n else None}
    if n >= 40:
        q = (100 * (n - 10)) // n
        ordered = sorted(values)
        rank = -(-q * n // 100)  # nearest rank, ceil(q n / 100)
        out["p%d" % q] = ordered[rank - 1]
    return out


def layer_metrics(spans):
    """(metrics for the result line, per-metric sample summaries).

    A metric's value is the median over the calls made inside timed
    operations; a layer that works only during set-up (the import, the
    weights, the solves that build the half-plane sources) is reported
    from its set-up calls. A layer that does no work reads 0."""
    samples = layer_samples(spans)
    metrics, detail = {}, {}
    for name, unit in METRICS.items():
        tagged = samples.get(name, [])
        by_phase = {ph: [v for p, v in tagged if p == ph]
                    for ph in ("op", "setup")}
        detail[name] = {ph: summarize(vals) for ph, vals in by_phase.items()}
        vals = by_phase["op"] or by_phase["setup"]
        metrics[name] = {"value": statistics.median(vals) if vals else 0,
                         "unit": unit}
    return metrics, detail
