"""Finite moment problems over the flat half-line atoms.

Given target values a_0..a_P, find phi = sum_k c_k a_k (flat atoms of
powers 0..P) with integral x^p phi(x) dx = a_p. The Gram matrix is the
Hankel moment matrix of exp(-x - 1/x), whose entries are Bessel values
2 K_{p+k+1}(2); its condition number grows roughly like e^{7P}, so the
solve runs in arbitrary precision with a doubling ladder and the result
keeps full-precision coefficients. Float views of the coefficients are
fine for plotting and sup-norm profiles but lose the cancellation needed
to reproduce the moments; every residual reported here comes from
independent arbitrary-precision quadrature against those coefficients.

That quadrature is one trapezoidal pass in s = log t over all orders at
once. By t = e^s, integral t^m exp(-t - 1/t) dt is the integral over the
real line of exp((m + 1) s - 2 cosh s) ds, whose integrand is entire and
decays doubly exponentially, so the plain trapezoidal rule converges
geometrically in 1/h (Trefethen and Weideman, "The exponentially
convergent trapezoidal rule", SIAM Review 56, 2014). Since
phi(t) = exp(-t - 1/t) sum_k c_k t^k is linear in the coefficients, each
level's sum for order p is sum_k c_k Q[p + k], where Q holds the
trapezoid sums of t^(m+1) exp(-t - 1/t), m = 0..2P, over the nested
levels so far: level 0 has step 1 and every integer node, each level on
halves the step and adds the odd nodes. Q does not depend on the
solution: its cumulative level tables are computed once in real
arithmetic and kept in the bounded _HANKEL_CACHE as integer mantissas at
one common exponent, so a warm verified solve evaluates phi nowhere.
With the coefficients' mantissas also brought to one exponent, each sum
is an exact integer dot product rounded once at the working precision,
bit for bit what mp.fdot returns. The working precision is the largest
cancellation headroom over the orders. The sums start at level
_FIRST_LEVEL, since coarser levels do not stop a pass at the default
tolerance, and levels halve the step until the gap between two levels
falls below tolerance * 1e-6 on every order; a pass that reaches the
level cap first is refused. The error roughly squares from one level to
the next, so the level returned lies far below the gap that stopped the
pass. The pass never calls a Bessel routine: the Bessel Gram values only
size its precision.

The Gram values h[m] = 2 K_{m+1}(2), m = 0..2P, are rounded down, rung
by rung, from the K_n(2) sequence of the bessel module; the matrix is
G[p, k] = h[p + k], and sum_k c_k h[p + k] is moment p in closed form.
None of it depends on the target, so each Gram rung -- the values at one
(n, bits), their log10 values and the LU factors of G as rows of raw mpf
values -- is built once and kept in the bounded _GRAM_CACHE. A warm
solve is then one forward and one back substitution on those rows,
O(n^2) instead of the O(n^3) factorization, made of libmp's rounded
products, differences and quotients in the order of mp.L_solve and
mp.U_solve, so its coefficients are bit for bit theirs.
moment_closed forms its sums with the verifier's integer window product,
over the Gram values. So does the residual check at doubled precision,
which decides each order exactly on those integers: the target entry and
the bound tolerance * 1e-3 * max(1, |a_p|) are brought to the sum's
exponent and |S - a_p|^2 is compared with the bound's square. Only the
returned trapezoid level's sums become mpmath numbers; the gaps between
levels and the reported 40-digit residuals are formed from raw libmp
values with the roundings of the mpmath arithmetic they replace.

Precision is set through the global mpmath context (mp.workprec and
mp.workdps), which every thread of the process shares, so solving or
verifying from several threads at once is unsafe; the Gram rungs and
the trapezoid tables are module caches that no lock guards either.

Solving is gated on the weight sequence: unless the classifier finds
that the ratio-tail condition at exponent 2 holds, the problem is
refused (the caller can override, and the override is recorded). The
parity-split reduction runs two such solves and adds no check of its own.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from itertools import product
from operator import mul

import numpy as np
from mpmath import mp
from mpmath.libmp import (dps_to_prec, from_float, from_man_exp, fzero,
                          mpc_abs, mpc_sub, mpc_to_complex, mpf_div, mpf_mul,
                          mpf_sub, round_nearest, to_float)

from .atoms import FLAT, TestFunction, _log_profile, _seminorm_scales
from .bessel import k2_sequence
from .conditions import HOLDS, check_condition
from .errors import (ConditionRefused, IllConditioned, InvalidParameter,
                     TargetTooLarge)
from .weightseq import WeightSequence

DEGREE_CAP = 32
PRECISION_LADDER = (200, 400, 800, 1600, 2000)
MAX_BITS = 4 * PRECISION_LADDER[-1]  # cap on min_bits
DEFAULT_TOLERANCE = 1e-6
OVERFLOW_LOG = math.log(np.finfo(float).max)  # ~709.78

_MAX_LEVEL = 10   # trapezoid levels (step 2^-level) before a pass is refused
# First level summed, so the first level a pass can return is 3. At the
# default tolerance no pass of degree 0-32 stops earlier; a tolerance of
# 0.1 or more would stop some degree-0 passes at level 2, whose error is
# ~1e-16 against level 3's ~1e-33.
_FIRST_LEVEL = 2
_DPS_GRID = 20    # pass precisions round up to this, so few tables recur

# Least recently used cumulative Hankel tables kept. One entry holds the
# trapezoid sums of one (level, precision, count) as count integer
# mantissas at one exponent: 2.2 kB at count 25 and 100 digits (a
# degree-12 pass), 32 kB at count 65 and 1000 digits (sys.getsizeof).
_CACHE_SIZE = 32
_HANKEL_CACHE = OrderedDict()

# mpmath's one-call LU solve factors and substitutes 10 bits beyond the
# working precision; doing both at the same guard keeps the coefficients
# bit for bit what that call returns at the rung's precision
_LU_GUARD = 10

_LOG10_2 = math.log10(2)
_RESIDUAL_PREC = dps_to_prec(40)  # bits of the reported quadrature residuals

# Gram rungs kept, least recently used first out. A solve touches one
# rung per ladder step tried plus its 2x-bits residual rung, so 8 holds
# the five ladder steps with slack. The largest rung, n = 33 factored at
# 8000 bits with its log10 values, holds ~1.7 MB (tracemalloc; a degree-12
# rung at 400 bits holds 0.07 MB), so the cache stays below ~14 MB.
_GRAM_CACHE_SIZE = 8
_GRAM_CACHE = OrderedDict()


def _hankel_table(level, count):
    """Sums of t^(m+1) exp(-t - 1/t), m = 0..count-1, over the trapezoid
    nodes t = exp(k 2^-level) new at this level (every integer k at level
    0, odd k above), in real arithmetic at the working precision.

    Each walk from s = log t = 0 stops once every term is below
    2^(-prec-20) of its running sum, and the upward walk only past
    t = count, beyond which every term decreases."""
    row = [mp.zero] * count
    tiny = mp.ldexp(1, -mp.prec - 20)
    r = mp.exp(mp.ldexp(1, -level))
    stride = r if level == 0 else r * r  # every k, or the odd k
    # (first node, node ratio, t to pass) upward, then downward
    for t, ratio, floor in ((mp.one if level == 0 else r, stride, count),
                            (1 / r, 1 / stride, 0)):
        while True:
            v = t * mp.exp(-t - 1 / t)
            small = True
            for m in range(count):
                row[m] += v
                small = small and v <= tiny * row[m]
                v *= t
            if small and t > floor:
                break
            t *= ratio
    return row


def _as_fixed(parts):
    """mpf tuples as (mantissas, exponent), part i being exactly
    mantissas[i] * 2^exponent."""
    exp = min((e for _, man, e, _ in parts if man), default=0)
    return (tuple((-man if sign else man) << (e - exp) if man else 0
                  for sign, man, e, _ in parts), exp)


def _as_fixed_coefficients(coeffs):
    """(real mantissas, imaginary mantissas or None, exponent): the
    coefficients' parts at one common exponent, exactly. The imaginary
    mantissas are None when every coefficient is real, as mp.fdot then
    returns a real."""
    if not any(hasattr(c, "_mpc_") for c in coeffs):
        man, exp = _as_fixed([c._mpf_ for c in coeffs])
        return man, None, exp
    parts = [c._mpc_ if hasattr(c, "_mpc_") else (c._mpf_, fzero)
             for c in coeffs]
    man, exp = _as_fixed([re for re, _ in parts] + [im for _, im in parts])
    return man[:len(parts)], man[len(parts):], exp


def _window_dots(coeffs, table, orders):
    """(dots, exponent): for each j in orders the exact integers (re, im)
    with sum_k c_k v[j + k] = (re + i im) * 2^exponent, where coeffs is
    _as_fixed_coefficients form and table the reals v in _as_fixed form;
    im is 0 when every coefficient is real."""
    re, im, c_exp = coeffs
    man, v_exp = table
    n = len(re)
    dots = []
    for j in orders:
        window = man[j:j + n]
        dots.append((sum(map(mul, re, window)),
                     0 if im is None else sum(map(mul, im, window))))
    return dots, c_exp + v_exp


def _rounded(dots, exp, prec):
    """Each dot (re, im) * 2^exp rounded once to prec bits, as an (re, im)
    pair of raw mpf values."""
    return [(from_man_exp(re, exp, prec, round_nearest),
             from_man_exp(im, exp, prec, round_nearest)) for re, im in dots]


def _numbers(raw, real):
    """Raw (re, im) pairs as mpf values of their real parts, when real, or
    else as mpc values."""
    if real:
        return [mp.make_mpf(re) for re, _ in raw]
    return [mp.make_mpc(z) for z in raw]


def _window_sums(coeffs, table, orders, shift=0):
    """sum_k c_k v[j + k] * 2^shift for each j in orders, as mpf values
    when every coefficient is real and mpc values otherwise, with coeffs
    and table as in _window_dots.

    Each sum is an exact integer dot product rounded once at the working
    precision, which is what mp.fdot does, so it is bit for bit
    mp.fdot(c, v[j:j + n]) * 2^shift (fdot drops a term only when it lies
    more than twice the precision in bits from its running sum)."""
    dots, exp = _window_dots(coeffs, table, orders)
    return _numbers(_rounded(dots, exp + shift, mp.prec), coeffs[1] is None)


def _dyadic(x):
    """(man, exp) with the float x equal to man * 2^exp."""
    man, den = x.as_integer_ratio()
    return man, 1 - den.bit_length()


def _within(dot, exp, a, tol):
    """Whether |(re + i im) * 2^exp - a| <= tol * max(1, |a|) exactly, for
    the dot (re, im), a complex a and a float tol: every part brought to
    the smallest exponent, and the squared moduli compared as integers."""
    (tm, te), (sm, se) = _dyadic(tol), _dyadic(max(1.0, abs(a)))
    parts = [(dot[0], exp), (dot[1], exp), _dyadic(a.real), _dyadic(a.imag),
             (tm * sm, te + se)]
    low = min(e for _, e in parts)
    sr, si, ar, ai, bound = (m << (e - low) for m, e in parts)
    return (sr - ar) ** 2 + (si - ai) ** 2 <= bound * bound


def _cumulative_table(level, count):
    """The trapezoid sums of t^(m+1) exp(-t - 1/t), m = 0..count-1, over
    the nodes of levels 0..level, in _as_fixed form: each level's row added
    to the table before it in mpf at the working precision. The tables
    live in an LRU of _CACHE_SIZE entries keyed by (level, precision,
    count)."""
    key = (level, mp.prec, count)
    if key in _HANKEL_CACHE:
        _HANKEL_CACHE.move_to_end(key)
        return _HANKEL_CACHE[key]
    row = _hankel_table(level, count)
    if level:
        man, exp = _cumulative_table(level - 1, count)
        row = [mp.mpf((m, exp)) + r for m, r in zip(man, row)]
    table = _HANKEL_CACHE[key] = _as_fixed([q._mpf_ for q in row])
    if len(_HANKEL_CACHE) > _CACHE_SIZE:
        _HANKEL_CACHE.popitem(last=False)
    return table


def _shared_node_moments(sol):
    """Integrals over the half line of t^j phi(t) for every order j of the
    solution's target, at the solution's largest headroom, with the
    trapezoid level returned and its gap: (sums, level, gap).

    By linearity each level's sum is sum_k c_k Q[j + k], where Q holds the
    quadrature moments of t^m exp(-t - 1/t) over the levels so far. Q does
    not depend on the solution, so its cumulative tables are cached.

    From level _FIRST_LEVEL on, stops at the first level whose sums all
    moved by at most tolerance * 1e-6 of max(1, |a_j|) since the level
    before; raises IllConditioned when _MAX_LEVEL is reached first."""
    dps = max(sol._headroom_dps())
    coeffs = sol._fixed
    n = len(sol._mp_coeffs)
    scales = [max(1.0, abs(a)) for a in sol.target.entries]
    slack = sol.tolerance * 1e-6
    gap = None
    rnd = round_nearest
    with mp.workdps(_DPS_GRID * -(-dps // _DPS_GRID)):
        prec = mp.prec
        last = None
        for level in range(_FIRST_LEVEL, _MAX_LEVEL + 1):
            dots, exp = _window_dots(
                coeffs, _cumulative_table(level, 2 * n - 1), range(n))
            sums = _rounded(dots, exp - level, prec)
            if last is not None:
                # abs(complex(s - q)) of the mpmath numbers, from raw parts
                gap = max(abs(mpc_to_complex(mpc_sub(s, q, prec, rnd),
                                             rnd=rnd)) / c
                          for s, q, c in zip(sums, last, scales))
                if gap <= slack:
                    return _numbers(sums, coeffs[1] is None), level, gap
            last = sums
    if gap is None:
        raise IllConditioned(
            "quadrature unresolved: the level cap %d leaves no two trapezoid "
            "levels from level %d to compare" % (_MAX_LEVEL, _FIRST_LEVEL))
    raise IllConditioned(
        "quadrature unresolved at trapezoid level %d: the last level moved "
        "a moment by %.3e relative, above %.1e" % (_MAX_LEVEL, gap, slack))


@dataclass(frozen=True)
class SequenceTarget:
    """Moment targets a_0..a_P with a declared geometric scale h."""
    entries: tuple
    h: float = 1.0

    def __post_init__(self):
        ent = tuple(complex(v) for v in self.entries)
        if not ent:
            raise InvalidParameter("target needs at least one entry")
        if not all(math.isfinite(v.real) and math.isfinite(v.imag)
                   for v in ent):
            raise InvalidParameter("target entries must be finite")
        object.__setattr__(self, "entries", ent)
        h = float(self.h)
        if not (h > 0.0 and math.isfinite(h)):
            raise InvalidParameter("scale h must be positive and finite")
        object.__setattr__(self, "h", h)

    @property
    def degree(self):
        return len(self.entries) - 1

    @property
    def is_real(self):
        return all(v.imag == 0.0 for v in self.entries)

    def to_dict(self):
        return {"h": self.h,
                "entries": [[v.real, v.imag] for v in self.entries]}

    @classmethod
    def from_dict(cls, data):
        ent = [complex(re, im) for re, im in data["entries"]]
        return cls(tuple(ent), float(data.get("h", 1.0)))


def lambda_log_norm(target, ws):
    """log of sup_p h^p |a_p| / M_p over the target entries."""
    idx = np.arange(len(target.entries))
    logw = ws.log_weight_array(idx)
    best = -math.inf
    lnh = math.log(target.h)
    for p, v in enumerate(target.entries):
        if v == 0:
            continue
        best = max(best, p * lnh + math.log(abs(v)) - logw[p])
    return best


def lambda_norm(target, ws):
    v = lambda_log_norm(target, ws)
    return 0.0 if v == -math.inf else float(np.exp(v))


def unit_ball_target(ws, degree, scale, seed):
    """Random target on the unit ball boundary-or-inside of the weighted
    sequence space: a_p = u_p M_p / h^p with u_p drawn uniformly from the
    complex unit disk. Deterministic in the seed."""
    if degree < 0:
        raise InvalidParameter("degree must be >= 0")
    n = degree + 1
    rng = np.random.default_rng(seed)
    radius = np.sqrt(rng.uniform(0.0, 1.0, n))
    angle = rng.uniform(0.0, 2.0 * math.pi, n)
    u = radius * np.exp(1j * angle)
    logmag = ws.log_weight_array(np.arange(n)) - np.arange(n) * math.log(scale)
    if np.max(logmag) > OVERFLOW_LOG - 2.0:
        raise InvalidParameter("target magnitudes overflow at this scale")
    ent = tuple(complex(z) for z in u * np.exp(logmag))
    return SequenceTarget(ent, h=scale)


def _log10_abs(re, im, exp):
    """log10 |re + i im| * 2^exp as a float, for integers re and im that
    are not both zero, of any size."""
    return 0.5 * math.log10(re * re + im * im) + exp * _LOG10_2


class _GramRung:
    """The moment matrix of n atoms at one precision: the 2n - 1 values
    h[m] = 2 K_{m+1}(2), G[p, k] = h[p + k], and, each made on first use,
    their log10 values as floats, the values in _as_fixed form and the LU
    factors of G as (rows, pivots), rows being the factor matrix of
    mp.LU_decomp as tuples of raw mpf values (None when G is numerically
    singular at this precision)."""

    def __init__(self, n, bits):
        self.n = n
        self.bits = bits
        k2 = k2_sequence(2 * n, bits)
        with mp.workprec(bits):
            self.values = tuple(2 * k2[m + 1] for m in range(2 * n - 1))
        self._log10 = None
        self._fixed = None
        self._lu = None
        self._factored = False

    @property
    def log10(self):
        if self._log10 is None:
            man, exp = self.fixed
            self._log10 = tuple(_log10_abs(m, 0, exp) for m in man)
        return self._log10

    @property
    def fixed(self):
        if self._fixed is None:
            self._fixed = _as_fixed([v._mpf_ for v in self.values])
        return self._fixed

    @property
    def lu(self):
        if not self._factored:
            n, h = self.n, self.values
            with mp.workprec(self.bits + _LU_GUARD):
                G = mp.matrix(n, n)
                for p in range(n):
                    for k in range(n):
                        G[p, k] = h[p + k]
                try:
                    A, pivots = mp.LU_decomp(G, overwrite=True)
                except ZeroDivisionError:
                    pass
                else:
                    self._lu = (tuple(tuple(A[p, k]._mpf_ for k in range(n))
                                      for p in range(n)), tuple(pivots))
            self._factored = True
        return self._lu


def _gram_rung(n, bits):
    """The Gram rung of (n, bits) from the LRU of _GRAM_CACHE_SIZE
    entries, built on a miss."""
    key = (n, bits)
    if key in _GRAM_CACHE:
        _GRAM_CACHE.move_to_end(key)
        return _GRAM_CACHE[key]
    rung = _GRAM_CACHE[key] = _GramRung(n, bits)
    if len(_GRAM_CACHE) > _GRAM_CACHE_SIZE:
        _GRAM_CACHE.popitem(last=False)
    return rung


def _substitute(lu, b, prec):
    """The solution of G c = b for raw mpf reals b, from the rung's LU
    factors: the forward and back substitution of mp.L_solve and
    mp.U_solve, in their order and with their roundings at prec bits, so
    bit for bit their result as raw mpf values."""
    rows, pivots = lu
    b = list(b)
    for k, p in enumerate(pivots):
        b[k], b[p] = b[p], b[k]
    n = len(b)
    rnd = round_nearest
    for i in range(1, n):
        row, bi = rows[i], b[i]
        for j in range(i):
            bi = mpf_sub(bi, mpf_mul(row[j], b[j], prec, rnd), prec, rnd)
        b[i] = bi
    for i in range(n - 1, -1, -1):
        row, bi = rows[i], b[i]
        for j in range(i + 1, n):
            bi = mpf_sub(bi, mpf_mul(row[j], b[j], prec, rnd), prec, rnd)
        b[i] = mpf_div(bi, row[i], prec, rnd)
    return b


def _solve_rung(lu, target, prec):
    """The coefficients of the target from the rung's LU factors, bit for
    bit those of mp.U_solve(A, mp.L_solve(A, rhs, pivots)) at prec bits.
    mpmath's complex-by-real product, difference and quotient
    (mpc_mul_mpf, mpc_sub, mpc_div_mpf) round each part apart, so a
    complex target is its real and imaginary parts substituted apart."""
    re = _substitute(lu, [from_float(v.real) for v in target.entries], prec)
    if target.is_real:
        return [mp.make_mpf(x) for x in re]
    im = _substitute(lu, [from_float(v.imag) for v in target.entries], prec)
    # mpmath's matrices store no zeros and read them back as mpf zero
    return [mp.make_mpc(z) if z != (fzero, fzero) else mp.zero
            for z in zip(re, im)]


def _checked_solve_args(tolerance, min_bits=None):
    """min_bits as an int, or None, once the tolerance is found to be a
    finite number > 0 and min_bits a finite number from 53 to MAX_BITS.
    A NaN tolerance would pass every `residual > tolerance` test, so it
    is refused here rather than met there."""
    try:
        tol = float(tolerance)
    except (TypeError, ValueError):
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidParameter(
            "tolerance must be a finite number > 0, not %r" % (tolerance,))
    if min_bits is None:
        return None
    try:
        finite = math.isfinite(float(min_bits))
    except (TypeError, ValueError):
        finite = False
    if not finite:
        raise InvalidParameter(
            "precision must be a finite number of bits, not %r" % (min_bits,))
    min_bits = int(min_bits)
    if min_bits < 53:
        raise InvalidParameter("precision below 53 bits")
    if min_bits > MAX_BITS:
        raise InvalidParameter("precision above %d bits" % MAX_BITS)
    return min_bits


def _gamma2_gate(ws, override):
    """Verdict of the ratio-tail condition at exponent 2; refuses unless
    it holds or the caller overrides."""
    rep = check_condition(ws, "gamma2")
    if rep.verdict != HOLDS and not override:
        raise ConditionRefused(
            "ratio-tail condition at exponent 2 is %s for this weight; "
            "pass the override to solve anyway" % rep.verdict)
    return rep.verdict


class MomentSolution:
    """Coefficients of phi = sum c_k a_k hitting the target moments.

    Coefficients live at the precision the ladder settled on; the float
    view in .function is lossy by design.
    """

    def __init__(self, target, ws, mp_coeffs, precision_bits, residuals,
                 gate_verdict, override, tolerance):
        self.target = target
        self.weight_descriptor = ws.descriptor()
        self._mp_coeffs = tuple(mp_coeffs)
        self.precision_bits = precision_bits
        self.residuals = tuple(residuals)
        self.gate_verdict = gate_verdict
        self.gate_override = override
        self.tolerance = tolerance
        self._fixed_coeffs = None
        self._function = None
        self._quadrature = None
        self._headroom = None
        # the trapezoid level the quadrature returned and its gap to the
        # level before, relative to max(1, |a_p|); None until it runs
        self.quadrature_level = None
        self.quadrature_gap = None

    @property
    def degree(self):
        return self.target.degree

    @property
    def coefficients(self):
        """Full-precision decimal strings, one per atom power."""
        with mp.workprec(self.precision_bits):
            out = []
            for c in self._mp_coeffs:
                digits = int(self.precision_bits / 3.32) + 2
                out.append(mp.nstr(c, digits))
        return tuple(out)

    @property
    def coefficient_values(self):
        return tuple(complex(c) for c in self._mp_coeffs)

    @property
    def function(self):
        if self._function is None:
            specs = []
            for k, c in enumerate(self.coefficient_values):
                specs.append((FLAT, k, c.real, c.imag))
            self._function = TestFunction(specs)
        return self._function

    @property
    def _fixed(self):
        """The coefficients in _as_fixed_coefficients form."""
        if self._fixed_coeffs is None:
            self._fixed_coeffs = _as_fixed_coefficients(self._mp_coeffs)
        return self._fixed_coeffs

    def _headroom_dps(self):
        """Decimal digits, one entry per target order, needed so that
        quadrature survives the cancellation between large coefficient
        terms and a small moment."""
        if self._headroom is None:
            logv = _gram_rung(self.degree + 1, self.precision_bits).log10
            re, im, exp = self._fixed
            logc = [(k, _log10_abs(x, y, exp))
                    for k, (x, y) in enumerate(zip(re, im or [0] * len(re)))
                    if x or y]
            out = []
            for p, a_p in enumerate(self.target.entries):
                if not logc:
                    out.append(30)
                    continue
                top = max(lc + logv[p + k] for k, lc in logc)
                extra = top - math.log10(max(1.0, abs(a_p)))
                out.append(30 + max(0, int(math.ceil(extra))))
            self._headroom = tuple(out)
        return self._headroom

    def eval_mp(self, t, m=None):
        """phi(t) at full precision (no derivatives; t >= 0)."""
        if m not in (None, 0):
            raise InvalidParameter("full-precision path evaluates order 0")
        if t <= 0:
            return mp.mpf(0)
        acc = mp.mpf(0)
        for c in reversed(self._mp_coeffs):
            acc = acc * t + c
        return acc * mp.exp(-t - 1 / t)

    def moment_closed(self, p):
        """sum_k c_k 2K_{p+k+1}(2) at solve precision."""
        rung = _gram_rung(self.degree + 1, self.precision_bits)
        with mp.workprec(self.precision_bits):
            return _window_sums(self._fixed, rung.fixed, (p,))[0]

    def moment_quadrature(self, p):
        """Independent check: arbitrary-precision quadrature of t^p phi(t)
        for a target order p. The first call runs one shared-node pass
        over every order; later calls read its result."""
        if not 0 <= p <= self.degree:
            raise InvalidParameter("moment order %d outside 0..%d"
                                   % (p, self.degree))
        if self._quadrature is None:
            self._quadrature, self.quadrature_level, self.quadrature_gap = \
                _shared_node_moments(self)
        return self._quadrature[p]

    def to_dict(self):
        return {
            "degree": self.degree,
            "target": self.target.to_dict(),
            "weight": self.weight_descriptor,
            "coefficients": list(self.coefficients),
            "precision_bits": self.precision_bits,
            "residuals": list(self.residuals),
            "tolerance": self.tolerance,
            "gate": {"condition": "gamma2", "verdict": self.gate_verdict,
                     "override": self.gate_override},
        }


def solve_moments(target, ws, override_gamma2=False,
                  tolerance=DEFAULT_TOLERANCE, verify=True, min_bits=None):
    """Solve the finite moment problem for the target against the weight.

    Raises TargetTooLarge beyond degree 32, ConditionRefused when the
    ratio-tail condition at exponent 2 does not hold and override_gamma2
    is false, IllConditioned when the precision ladder tops out before
    the residuals meet tolerance or verification misses it, and
    InvalidParameter on a tolerance that is not a finite number > 0.
    min_bits, from 53 to MAX_BITS, skips the ladder's lower rungs.
    """
    if not isinstance(target, SequenceTarget):
        target = SequenceTarget(tuple(target))
    if target.degree > DEGREE_CAP:
        raise TargetTooLarge(
            "degree %d beyond cap %d" % (target.degree, DEGREE_CAP))
    if not isinstance(ws, WeightSequence):
        raise InvalidParameter("a WeightSequence is required")
    min_bits = _checked_solve_args(tolerance, min_bits)
    verdict = _gamma2_gate(ws, override_gamma2)
    n = target.degree + 1
    ladder = PRECISION_LADDER
    if min_bits is not None:
        ladder = tuple(b for b in PRECISION_LADDER if b >= min_bits) \
            or (min_bits,)
    solution = None
    for bits in ladder:
        lu = _gram_rung(n, bits).lu
        if lu is None:
            continue
        c = _solve_rung(lu, target, bits + _LU_GUARD)
        # residual of the linear system against the Gram values at doubled
        # precision, decided exactly on the integer window sums
        dots, exp = _window_dots(_as_fixed_coefficients(c),
                                 _gram_rung(n, 2 * bits).fixed, range(n))
        ok = all(_within(d, exp, a, float(tolerance) * 1e-3)
                 for d, a in zip(dots, target.entries))
        if ok:
            solution = MomentSolution(
                target, ws, c, bits, (), verdict, override_gamma2,
                tolerance)
            break
    if solution is None:
        raise IllConditioned(
            "moment matrix residuals above tolerance at %d bits"
            % ladder[-1])
    if verify:
        residuals = []
        rnd = round_nearest
        for p in range(n):
            q = solution.moment_quadrature(p)
            a_p = target.entries[p]
            # float(abs(q - mp.mpc(a_p))) at 40 digits, from raw parts
            q = getattr(q, "_mpc_", None) or (q._mpf_, fzero)
            diff = mpc_sub(q, (from_float(a_p.real), from_float(a_p.imag)),
                           _RESIDUAL_PREC, rnd)
            rel = to_float(mpc_abs(diff, _RESIDUAL_PREC, rnd), rnd=rnd) \
                / max(1.0, abs(a_p))
            residuals.append(rel)
        solution.residuals = tuple(residuals)
        worst = max(residuals)
        if worst > tolerance:
            raise IllConditioned(
                "quadrature residual %.3e above tolerance %.1e"
                % (worst, tolerance))
    return solution


def membership_report(phi, ws, order_caps=(0, 2, 4, 8),
                      scales=(0.25, 1.0, 4.0)):
    """Sup-norm profile of phi over (order cap, scale) cells against the
    weight. Each cell carries a Finite/Overflow status; log values are
    always reported so overflowing cells stay comparable.

    Each cell is log_seminorm of phi at its order cap and scale: the sup
    over the scale's default grid, then two refinement passes around the
    argmax. All cells come from one profile (atoms._log_profile), which
    computes each derivative row once per distinct grid and refines every
    cell at once."""
    scales = _seminorm_scales(ws, order_caps, scales)
    _, found = _log_profile(phi, ws, order_caps, scales)
    cells = []
    all_finite = True
    for (logv, x, m), (n_cap, h) in zip(found, product(order_caps, scales)):
        over = logv > OVERFLOW_LOG
        if over:
            all_finite = False
        cells.append({
            "order_cap": int(n_cap),
            "scale": float(h),
            "log_value": None if logv == -math.inf else float(logv),
            "value": None if over or logv == -math.inf
            else float(np.exp(logv)),
            "status": "Overflow" if over else "Finite",
            "argmax_x": x,
            "argmax_order": m,
        })
    return {"cells": cells, "all_finite": all_finite}


@dataclass
class ReductionResult:
    even_solution: MomentSolution
    odd_solution: MomentSolution
    residuals: tuple

    def function(self, x):
        """The symmetrized whole-line function built from the two halves,
        F(x) = |x| phi_e(x^2) + sgn(x) phi_o(x^2)."""
        x_arr = np.asarray(x, dtype=float)
        t = np.square(x_arr)
        out = (np.abs(x_arr) * self.even_solution.function.eval_derivative(t)
               + np.sign(x_arr) * self.odd_solution.function.eval_derivative(t))
        return out if np.ndim(x) else out.item()


def reduction_roundtrip(target, ws, override_gamma2=False,
                        tolerance=DEFAULT_TOLERANCE):
    """Split the target into even and odd entry streams, solve the two
    half problems, push both through x -> x^2 and symmetrize.

    The whole-line function is F(x) = |x| phi_e(x^2) + sgn(x) phi_o(x^2),
    so by t = x^2 its moments are the half solutions' own:
    integral x^(2j) F(x) dx = integral_0^inf t^j phi_e(t) dt and
    integral x^(2j+1) F(x) dx = integral_0^inf t^j phi_o(t) dt. Entry p
    of the residuals is therefore the verified quadrature residual of
    order p // 2 of the half solve of parity p % 2; a half solve that
    misses the tolerance has already raised."""
    if not isinstance(target, SequenceTarget):
        target = SequenceTarget(tuple(target))
    ent = target.entries
    sols = [solve_moments(SequenceTarget(half, h=target.h), ws,
                          override_gamma2=override_gamma2, tolerance=tolerance)
            for half in (ent[0::2], ent[1::2] or (0j,))]
    residuals = tuple(sols[p % 2].residuals[p // 2] for p in range(len(ent)))
    return ReductionResult(sols[0], sols[1], residuals)
