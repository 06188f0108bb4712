"""Weight sequences, log-domain caching, and the associated function.

A weight sequence is (M_p) with M_0 = 1 whose ratio sequence
m_p = M_p / M_{p-1} tends to infinity. Everything here is stored and
computed as log M_p: the interesting families (q-geometric ones above all,
where log M_p grows like p^2) overflow double precision before p reaches
a few dozen, while their logarithms stay modest.

The associated function

    M(t) = sup_p log(t^p / M_p),  M(0) = 0,

is evaluated by the counting formula sum_{p: m_p <= t} (log t - log m_p),
which agrees with the brute-force supremum whenever the sequence is
log-convex; tests enforce that agreement against an independent scan.
"""

from __future__ import annotations

import ast
import math
import operator
import sys

import numpy as np

from .errors import (
    HorizonExceeded,
    IndexOutOfHorizon,
    InvalidParameter,
    NotAWeightSequence,
    RequiresLogConvexity,
)

DEFAULT_HORIZON = 4096
MIN_HORIZON = 64
MAX_HORIZON = 2 ** 17  # room to interpolate a 2^16 sequence
LC_TOL = 1e-12

# factor the final ratio must exceed the first by, as divergence evidence
_DIVERGENCE_WITNESS = math.log(10.0)
_EXP_OVERFLOW = math.log(sys.float_info.max)

_STIRLING_FROM = 16.0  # _lgamma's switch from math.lgamma to Stirling
_HALF_LOG_2PI = 0.9189385332046728  # log(2 pi)/2, correctly rounded


def _lgamma_scalar(x):
    try:
        return math.lgamma(x)
    except ValueError:  # a pole: 0, -1, -2, ...
        return math.inf


def _lgamma(x):
    """log|Gamma(x)| elementwise for real x, +inf at the poles.

    Below 16 each value is math.lgamma's. From 16 up it is the Stirling
    series (x - 1/2) log x - x + log(2 pi)/2 + 1/(12x) - 1/(360x^3)
    + 1/(1260x^5) - 1/(1680x^7) (DLMF 5.11.1), whose first omitted term
    is below 1.3e-14 there, against log Gamma(16) > 27. Small x is not
    shifted up by the recurrence: the subtracted log-product would leave
    log Gamma(1) and log Gamma(2) off zero by rounding.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    big = (x >= _STIRLING_FROM) & (x < math.inf)
    v = x[big]
    r = 1.0 / v
    r2 = r * r
    out[big] = ((v - 0.5) * np.log(v) - v + _HALF_LOG_2PI
                + r * (1 / 12 - r2 * (1 / 360 - r2 * (1 / 1260 - r2 / 1680))))
    out[~big] = [_lgamma_scalar(float(u)) for u in x[~big]]
    return out[()]


# the rule language of from_expr: its operators, constants and functions;
# the wrappers fix each function's arity, since a numpy ufunc would take a
# second positional argument as its output array
_RULE_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub,
                   ast.Mult: operator.mul, ast.Div: operator.truediv,
                   ast.Pow: operator.pow, ast.UAdd: operator.pos,
                   ast.USub: operator.neg}
_RULE_CONSTANTS = {"pi": math.pi, "e": math.e}
_RULE_FUNCTIONS = {"log": lambda x: np.log(x), "exp": lambda x: np.exp(x),
                   "sqrt": lambda x: np.sqrt(x), "lgamma": _lgamma,
                   "pow": lambda x, y: np.power(x, y)}
# characters a rule may have: the deepest rule within it, 499 nested
# signs, evaluates well inside the interpreter's recursion limit
_RULE_CAP = 500


class WeightSequence:
    """A weight sequence cached up to a finite horizon.

    Closed-form kinds (gevrey, qgevrey, expr, and the interpolant of one
    of them) carry a vectorized rule p -> log M_p and may be evaluated
    beyond the cache; table-backed sequences, the interpolant of a table
    among them, are exactly their data.
    """

    def __init__(self, kind, params, horizon=DEFAULT_HORIZON, log_weight_vec=None,
                 log_values=None):
        if not isinstance(horizon, (int, np.integer)):
            raise InvalidParameter("horizon must be an integer")
        horizon = int(horizon)
        if horizon < MIN_HORIZON:
            raise InvalidParameter(
                "horizon %d below minimum %d" % (horizon, MIN_HORIZON))
        if horizon > MAX_HORIZON:
            raise InvalidParameter(
                "horizon %d above maximum %d" % (horizon, MAX_HORIZON))
        self.kind = str(kind)
        self.params = dict(params)
        self.horizon = horizon
        self._vec = log_weight_vec
        if log_weight_vec is not None:
            values = np.asarray(log_weight_vec(np.arange(horizon + 1, dtype=float)),
                                dtype=float)
        elif log_values is not None:
            values = np.asarray(log_values, dtype=float).copy()
            if values.ndim != 1 or len(values) < horizon + 1:
                raise InvalidParameter(
                    "need at least horizon+1 log-weight values")
            values = values[: horizon + 1]
        else:
            raise InvalidParameter("either a rule or explicit values required")
        self._validate(values)
        self.log_values = values
        self.log_values.flags.writeable = False
        self._log_ratios = np.diff(values)
        self._log_ratios.flags.writeable = False
        self._assoc = None
        self._reports = {}  # condition name -> report, for check_condition

    def _validate(self, values):
        if not np.all(np.isfinite(values)):
            raise NotAWeightSequence("log-weights must be finite")
        if abs(values[0]) > 1e-12:
            raise NotAWeightSequence(
                "normalization M_0 = 1 violated: log M_0 = %r" % values[0])
        values[0] = 0.0
        ratios = np.diff(values)
        if ratios[-1] <= ratios[0] + _DIVERGENCE_WITNESS:
            raise NotAWeightSequence(
                "ratio sequence does not witness divergence over the horizon "
                "(final/first ratio factor below 10); enlarge the horizon or "
                "check the sequence")

    @property
    def closed_form(self):
        return self._vec is not None

    @property
    def log_ratios(self):
        """log m_p for p = 1..horizon, as an array indexed by p-1."""
        return self._log_ratios

    def log_weight(self, p):
        """log M_p. Beyond the horizon only closed-form kinds can answer."""
        if p < 0:
            raise IndexOutOfHorizon("negative index %d" % p)
        if p <= self.horizon:
            return float(self.log_values[p])
        if self._vec is None:
            raise IndexOutOfHorizon(
                "index %d beyond horizon %d of a table-backed sequence"
                % (p, self.horizon))
        return float(self._vec(np.asarray(float(p))))

    def log_weight_array(self, idx):
        """Vectorized log M over an integer index array."""
        idx = np.asarray(idx)
        if np.any(idx < 0):
            raise IndexOutOfHorizon("negative index")
        if idx.size and int(idx.max()) > self.horizon:
            if self._vec is None:
                raise IndexOutOfHorizon(
                    "index %d beyond horizon %d of a table-backed sequence"
                    % (int(idx.max()), self.horizon))
            return np.asarray(self._vec(idx.astype(float)), dtype=float)
        return self.log_values[idx]

    def descriptor(self):
        """JSON-ready description: kind, parameters, horizon."""
        params = {}
        for key, val in self.params.items():
            if isinstance(val, np.ndarray):
                params[key] = [float(v) for v in val]
            else:
                params[key] = val
        return {"kind": self.kind, "params": params, "horizon": self.horizon}

    def associated(self):
        """The associated function of this sequence (requires log-convexity)."""
        if self._assoc is None:
            self._assoc = AssociatedFunction(self)
        return self._assoc

    def __repr__(self):
        return "WeightSequence(kind=%r, params=%r, horizon=%d)" % (
            self.kind, self.params, self.horizon)


def lc_second_differences(ws):
    """Second differences of log M_p, whose sign decides log-convexity."""
    lv = ws.log_values
    return lv[2:] - 2.0 * lv[1:-1] + lv[:-2]


def is_log_convex(ws, tol=None):
    """Log-convexity up to rounding: second differences of log M are
    computed in float, so the slack scales with the largest magnitude."""
    d2 = lc_second_differences(ws)
    if tol is None:
        scale = float(np.max(np.abs(ws.log_values))) if len(ws.log_values) else 1.0
        tol = LC_TOL + 16.0 * np.finfo(float).eps * max(1.0, scale)
    return bool(d2.min() >= -tol)


class AssociatedFunction:
    """M(t) = sup_p log(t^p / M_p), evaluated by the counting formula.

    Under log-convexity the supremum is attained at the number of ratios
    not exceeding t, so M(t) = k log t - log M_k with k = #{p: m_p <= t}.
    Arguments beyond the largest cached ratio are refused rather than
    silently truncated.
    """

    def __init__(self, ws):
        if not is_log_convex(ws):
            raise RequiresLogConvexity(
                "associated function needs a log-convex sequence")
        self.owner = ws
        # ratios are nondecreasing up to the lc tolerance; make the search
        # key exactly monotone so searchsorted is well defined
        self._keys = np.maximum.accumulate(ws.log_ratios)
        self._top = float(self._keys[-1])

    @property
    def max_argument(self):
        """Largest admissible t (the final cached ratio). Steep sequences
        push the last ratio past float range; every float is admissible
        then and the bound reads infinite."""
        if self._top >= _EXP_OVERFLOW:
            return math.inf
        return math.exp(self._top)

    def value(self, t):
        if not (t >= 0.0):
            raise InvalidParameter("associated function needs t >= 0")
        if t == 0.0:
            return 0.0
        lnt = math.log(t)
        if lnt > self._top:
            raise HorizonExceeded(
                "t = %g beyond the largest cached ratio exp(%g)" % (t, self._top))
        k = int(np.searchsorted(self._keys, lnt, side="right"))
        return k * lnt - float(self.owner.log_values[k])

    def values(self, ts):
        """Vectorized evaluation over an array of admissible arguments."""
        ts = np.asarray(ts, dtype=float)
        if np.any(ts < 0.0):
            raise InvalidParameter("associated function needs t >= 0")
        out = np.zeros_like(ts)
        pos = ts > 0.0
        lnt = np.log(ts[pos])
        if lnt.size and lnt.max() > self._top:
            raise HorizonExceeded("argument beyond the largest cached ratio")
        k = np.searchsorted(self._keys, lnt, side="right")
        out[pos] = k * lnt - self.owner.log_values[k]
        return out

    def __call__(self, t):
        return self.value(t)


def associated_function(ws, t):
    """Value of the associated function of ws at t."""
    return ws.associated().value(t)


def _number(value, what):
    """float(value), refused as InvalidParameter if it is not a number."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise InvalidParameter("%s must be a number, got %r"
                               % (what, value)) from None


def gevrey(alpha, horizon=DEFAULT_HORIZON):
    """Factorial-power sequence M_p = (p!)^alpha, alpha > 0."""
    alpha = _number(alpha, "gevrey exponent")
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise InvalidParameter("gevrey exponent must be positive, got %r" % alpha)
    vec = lambda ps: alpha * _lgamma(np.asarray(ps) + 1.0)
    return WeightSequence("gevrey", {"alpha": alpha}, horizon, log_weight_vec=vec)


def q_gevrey(q, horizon=DEFAULT_HORIZON):
    """Geometric-square sequence M_p = q^(p^2), q > 1."""
    q = _number(q, "qgevrey base")
    if not (math.isfinite(q) and q > 1.0):
        raise InvalidParameter("qgevrey base must exceed 1, got %r" % q)
    lnq = math.log(q)
    vec = lambda ps: np.square(np.asarray(ps, dtype=float)) * lnq
    return WeightSequence("qgevrey", {"q": q}, horizon, log_weight_vec=vec)


def from_table(log_values, horizon=None):
    """Sequence given by explicit log M_p values (index 0..horizon)."""
    try:
        log_values = np.asarray(log_values, dtype=float)
    except (TypeError, ValueError):
        raise InvalidParameter("table log-values must be numbers") from None
    if horizon is None:
        horizon = len(log_values) - 1
    return WeightSequence("table", {"log_values": log_values}, horizon,
                          log_values=log_values)


def _rule_value(node, names):
    """The value of one node of a parsed weight rule, given its names."""
    kind = type(node)
    if kind is ast.Constant and type(node.value) in (int, float):
        return float(node.value)
    if kind is ast.Name and node.id in names:
        return names[node.id]
    if kind is ast.BinOp and type(node.op) in _RULE_OPERATORS:
        return _RULE_OPERATORS[type(node.op)](_rule_value(node.left, names),
                                              _rule_value(node.right, names))
    if kind is ast.UnaryOp and type(node.op) in _RULE_OPERATORS:
        return _RULE_OPERATORS[type(node.op)](_rule_value(node.operand, names))
    if (kind is ast.Call and type(node.func) is ast.Name
            and node.func.id in _RULE_FUNCTIONS and not node.keywords):
        return _RULE_FUNCTIONS[node.func.id](
            *[_rule_value(arg, names) for arg in node.args])
    raise InvalidParameter("weight rule may not contain %r" % ast.unparse(node))


def from_expr(expression, horizon=DEFAULT_HORIZON):
    """Sequence given by a closed-form rule for log M_p in the variable p,
    e.g. "2*lgamma(p+1)". Each evaluation walks the parsed rule, which may
    hold only numbers (read as floats, so 10**10**7 overflows at once),
    the names p, pi, e, the operators + - * / ** and unary + -, and calls
    log(x), exp(x), sqrt(x), lgamma(x), pow(x, y), all with numpy
    semantics. Other syntax, over _RULE_CAP characters, and a value that
    overflows, divides by zero or is not real raise InvalidParameter."""
    text = str(expression)
    if len(text) > _RULE_CAP:
        raise InvalidParameter("weight rule longer than %d characters"
                               % _RULE_CAP)
    try:
        tree = ast.parse(text, mode="eval").body
    except (SyntaxError, ValueError) as exc:
        raise InvalidParameter("weight rule %r fails: %s" % (text, exc)) from None

    def vec(ps):
        p = np.asarray(ps, dtype=float)
        try:
            # a log(0) or an inf - inf leaves a non-finite value, which the
            # cached values' finiteness check refuses; numpy need not warn
            with np.errstate(all="ignore"):
                value = np.asarray(_rule_value(tree,
                                               dict(_RULE_CONSTANTS, p=p)))
            if value.dtype != float:
                raise TypeError("the value is not real")
        except (OverflowError, TypeError, ZeroDivisionError) as exc:
            raise InvalidParameter("weight rule %r fails: %s"
                                   % (text, exc)) from None
        return np.broadcast_to(value, p.shape).copy()

    return WeightSequence("expr", {"expression": text}, horizon,
                          log_weight_vec=vec)


def make_sequence(descriptor, horizon=None):
    """Build a sequence from a config descriptor {kind, params, horizon?};
    a malformed descriptor raises InvalidParameter."""
    params = descriptor.get("params", {}) if isinstance(descriptor, dict) else None
    if not isinstance(params, dict):
        raise InvalidParameter("sequence descriptor must be a mapping "
                               "{kind, params, horizon?} with mapping params")
    kind = descriptor.get("kind")
    if horizon is None:
        horizon = descriptor.get("horizon", DEFAULT_HORIZON)
    key = {"gevrey": "alpha", "qgevrey": "q", "table": "log_values",
           "expr": "expression"}.get(kind) if isinstance(kind, str) else None
    if key is None:
        raise InvalidParameter("unknown sequence kind %r" % (kind,))
    if key not in params:
        raise InvalidParameter("%s sequences need params.%s" % (kind, key))
    value = params[key]
    if kind == "gevrey":
        return gevrey(value, horizon)
    if kind == "qgevrey":
        return q_gevrey(value, horizon)
    if kind == "table":
        if not isinstance(value, (list, tuple, np.ndarray)):
            raise InvalidParameter("params.log_values must be a list")
        if isinstance(horizon, (int, np.integer)):
            horizon = min(horizon, len(value) - 1)
        return from_table(value, horizon)
    return from_expr(value, horizon)
