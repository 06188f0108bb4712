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

That quadrature is one tanh-sinh pass (Takahasi-Mori) over all orders at
once: each node evaluates phi once, at the largest cancellation headroom
over the orders, and adds w phi(t) t^p into every running sum. Levels
halve the step until the gap between two levels, the error estimate of
Bailey, Jeyabalan and Li, falls below tolerance * 1e-3 on every order;
a pass that reaches the level cap first is refused. The pass never calls
a Bessel routine: the Bessel Gram rows only size its precision.

The Gram values come from one module-level sequence K_0(2), K_1(2), ...
held at the highest precision asked for so far plus guard bits, and
rounded down for each rung. Its seeds are power series at z = 2:
K_0(2) = sum H_k/(k!)^2 - gamma I_0(2) (DLMF 10.31.2, where ln(z/2)
vanishes), and K_1(2) from the Wronskian I_0 K_1 + I_1 K_0 = 1/z (DLMF
10.28.2). Higher orders follow from K_{n+1}(2) = K_{n-1}(2) + n K_n(2)
(DLMF 10.29.1), which adds positive terms and so is stable forward.

Precision is set through the global mpmath context (mp.workprec and
mp.workdps), which every thread of the process shares, so solving or
verifying from several threads at once is unsafe.

Solving is gated on the weight sequence: unless the classifier finds
that the ratio-tail condition at exponent 2 holds, the problem is
refused (the caller can override, and the override is recorded).
"""

from __future__ import annotations

import json
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from mpmath import mp
from mpmath.calculus.quadrature import TanhSinh

from .atoms import _CACHE_SIZE, FLAT, TestFunction, _cached, log_seminorm
from .conditions import HOLDS, check_condition
from .errors import (ConditionRefused, IllConditioned, InvalidParameter,
                     TargetTooLarge)
from .transforms import square_substitute
from .weightseq import WeightSequence

DEGREE_CAP = 32
PRECISION_LADDER = (200, 400, 800, 1600, 2000)
DEFAULT_TOLERANCE = 1e-6
OVERFLOW_LOG = math.log(np.finfo(float).max)  # ~709.78

_HALF_LINE_POINTS = (0, 1, 5, 25, 90, mp.inf)
_SQUARE_POINTS = (0, 1, 3, 6, 10, mp.inf)  # for x -> x^2 pushforwards
_MAX_LEVEL = 10   # tanh-sinh levels (step 2^-level) before a pass is refused
_DPS_GRID = 20    # pass precisions round up to this, so few node sets recur
_TANH_SINH = TanhSinh(mp)

_NODE_CACHE = OrderedDict()


def _level_nodes(points, level, prec):
    """Tanh-sinh nodes (x, w) new at this level, over every interval
    between consecutive breakpoints."""
    def make():
        nodes = []
        for a, b in zip(points, points[1:]):
            nodes.extend(_TANH_SINH.get_nodes(a, b, level, prec))
        _TANH_SINH.clear()  # _NODE_CACHE is the only cache kept
        return nodes
    return _cached(_NODE_CACHE, (points, level, prec), make)


def _shared_node_moments(sol, f, u, points, extra_dps=0):
    """Integrals over the breakpoints of f(x) u(x)^j for every order j of
    the solution's target, from one evaluation of f per tanh-sinh node,
    at the solution's largest headroom plus extra_dps digits.

    Stops at the first level whose sums all moved by at most
    tolerance * 1e-3 of max(1, |a_j|) since the level before; raises
    IllConditioned when _MAX_LEVEL is reached first."""
    dps = max(sol._headroom_dps(j) for j in range(sol.degree + 1)) + extra_dps
    scales = [max(1.0, abs(a)) for a in sol.target.entries]
    slack = sol.tolerance * 1e-3
    with mp.workdps(_DPS_GRID * -(-dps // _DPS_GRID)):
        raw = [mp.zero] * len(scales)  # weighted sums over levels so far
        last = None
        for level in range(1, _MAX_LEVEL + 1):
            for x, w in _level_nodes(points, level, mp.prec):
                v = w * f(x)
                ux = u(x)
                for j in range(len(raw)):
                    raw[j] += v
                    v *= ux
            step = mp.ldexp(1, -level)
            sums = [step * r for r in raw]
            if last is not None:
                gap = max(float(abs(s - q)) / c
                          for s, q, c in zip(sums, last, scales))
                if gap <= slack:
                    return sums
            last = sums
    raise IllConditioned(
        "quadrature unresolved at tanh-sinh level %d: the last level moved "
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


_K2_GUARD = 20  # bits _K2 is held beyond the highest precision asked for
_K2_BITS = 0    # precision of _K2, guard bits included
_K2 = []        # K_0(2), K_1(2), ... at _K2_BITS bits


def _k2_seeds():
    """[K_0(2), K_1(2)] at the working precision, from the power series
    of I_0(2), I_1(2) and K_0(2) and the Wronskian."""
    tiny = mp.ldexp(1, -mp.prec - 8)
    i0 = i1 = s = mp.zero
    term = mp.one  # 1/(k!)^2
    harmonic = mp.zero  # H_k = 1 + 1/2 + ... + 1/k
    k = 0
    while term > tiny:
        i0 += term
        i1 += term / (k + 1)
        s += harmonic * term
        k += 1
        harmonic += mp.one / k
        term /= k * k
    k0 = s - mp.euler * i0
    return [k0, (mp.one / 2 - i1 * k0) / i0]


def _bessel_k2(count, bits):
    """The list K_0(2), K_1(2), ... with at least count entries, accurate
    beyond bits: reseeded when bits asks for more precision than it
    holds, extended by the recurrence when it is too short."""
    global _K2_BITS
    if bits + _K2_GUARD > _K2_BITS:
        with mp.workprec(bits + _K2_GUARD):
            _K2[:] = _k2_seeds()
        _K2_BITS = bits + _K2_GUARD
    with mp.workprec(_K2_BITS):
        while len(_K2) < count:
            n = len(_K2) - 1
            _K2.append(_K2[n - 1] + n * _K2[n])
    return _K2


def _gram_rows(n, bits):
    """Rows of the moment matrix 2 K_{p+k+1}(2) at the given precision."""
    k2 = _bessel_k2(2 * n, bits)
    with mp.workprec(bits):
        vals = [2 * k2[m + 1] for m in range(2 * n - 1)]
    return tuple(tuple(vals[p:p + n]) for p in range(n))


_GATE_CACHE = OrderedDict()


def _gamma2_gate(ws, override):
    """Verdict of the ratio-tail condition at exponent 2; refuses unless
    it holds or the caller overrides."""
    key = json.dumps(ws.descriptor(), sort_keys=True)
    rep = _cached(_GATE_CACHE, key, lambda: check_condition(ws, "gamma2"))
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
        self._function = None
        self._quadrature = None

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

    def _headroom_dps(self, p):
        """Decimal digits needed so quadrature survives the cancellation
        between large coefficient terms and a small moment."""
        n = self.degree + 1
        rows = _gram_rows(n, self.precision_bits)
        with mp.workprec(self.precision_bits):
            top = -mp.inf
            for k, c in enumerate(self._mp_coeffs):
                if c == 0:
                    continue
                t = mp.log(abs(c), 10) + mp.log(rows[p][k], 10)
                top = max(top, t)
            if top == -mp.inf:
                return 30
            tgt = max(1.0, abs(self.target.entries[p]))
            extra = float(top - mp.log(tgt, 10))
        return 30 + max(0, int(math.ceil(extra)))

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
        rows = _gram_rows(self.degree + 1, self.precision_bits)
        with mp.workprec(self.precision_bits):
            return mp.fsum(c * rows[p][k]
                           for k, c in enumerate(self._mp_coeffs))

    def moment_quadrature(self, p):
        """Independent check: arbitrary-precision quadrature of t^p phi(t)
        for a target order p. The first call runs one shared-node pass
        over every order; later calls read its result."""
        if not 0 <= p <= self.degree:
            raise InvalidParameter("moment order %d outside 0..%d"
                                   % (p, self.degree))
        if self._quadrature is None:
            self._quadrature = _shared_node_moments(
                self, self.eval_mp, lambda t: t, _HALF_LINE_POINTS)
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
                  tolerance=DEFAULT_TOLERANCE, verify=True, gate=True,
                  min_bits=None):
    """Solve the finite moment problem for the target against the weight.

    Raises TargetTooLarge beyond degree 32, ConditionRefused when the
    gate condition fails and no override is given, IllConditioned when
    the precision ladder tops out before the residuals meet tolerance.
    min_bits skips the ladder's lower rungs.
    """
    if not isinstance(target, SequenceTarget):
        target = SequenceTarget(tuple(target))
    if target.degree > DEGREE_CAP:
        raise TargetTooLarge(
            "degree %d beyond cap %d" % (target.degree, DEGREE_CAP))
    if not isinstance(ws, WeightSequence):
        raise InvalidParameter("a WeightSequence is required")
    verdict = _gamma2_gate(ws, override_gamma2) if gate else None
    n = target.degree + 1
    ladder = PRECISION_LADDER
    if min_bits is not None:
        min_bits = int(min_bits)
        if min_bits < 53:
            raise InvalidParameter("precision below 53 bits")
        ladder = tuple(b for b in PRECISION_LADDER if b >= min_bits) \
            or (min_bits,)
    solution = None
    for bits in ladder:
        rows = _gram_rows(n, bits)
        with mp.workprec(bits):
            G = mp.matrix(n, n)
            for p in range(n):
                for k in range(n):
                    G[p, k] = rows[p][k]
            rhs = mp.matrix([mp.mpc(v) if not target.is_real else mp.mpf(v.real)
                             for v in target.entries])
            try:
                c = mp.lu_solve(G, rhs)
            except ZeroDivisionError:
                continue
        # residual of the linear system, judged at doubled precision
        with mp.workprec(2 * bits):
            rows2 = _gram_rows(n, 2 * bits)
            ok = True
            for p in range(n):
                r = mp.fsum(c[k] * rows2[p][k] for k in range(n)) \
                    - mp.mpc(target.entries[p])
                rel = abs(r) / max(1.0, abs(target.entries[p]))
                if rel > tolerance * 1e-3:
                    ok = False
                    break
        if ok:
            solution = MomentSolution(
                target, ws, list(c), bits, (), verdict, override_gamma2,
                tolerance)
            break
    if solution is None:
        raise IllConditioned(
            "moment matrix residuals above tolerance at %d bits"
            % ladder[-1])
    if verify:
        residuals = []
        for p in range(n):
            q = solution.moment_quadrature(p)
            a_p = target.entries[p]
            with mp.workdps(40):
                rel = float(abs(q - mp.mpc(a_p))) / max(1.0, abs(a_p))
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
    always reported so overflowing cells stay comparable."""
    cells = []
    all_finite = True
    for n_cap in order_caps:
        for h in scales:
            logv, where = log_seminorm(phi, n_cap, h, ws)
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
                "argmax_x": where["argmax_x"],
                "argmax_order": where["argmax_m"],
            })
    return {"cells": cells, "all_finite": all_finite}


@dataclass
class ReductionResult:
    even_solution: MomentSolution
    odd_solution: MomentSolution
    residuals: tuple

    def function(self, x):
        """The symmetrized whole-line function built from the two halves."""
        we = square_substitute(self.even_solution.function, weighted=True)
        po = square_substitute(self.odd_solution.function, weighted=False)
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros(x_arr.shape, dtype=complex)
        pos = x_arr > 0
        neg = x_arr < 0
        if pos.any():
            xp = x_arr[pos]
            out[pos] = 0.5 * (np.asarray(we.eval_derivative(xp), dtype=complex)
                              + np.asarray(po.eval_derivative(xp), dtype=complex))
        if neg.any():
            xn = -x_arr[neg]
            out[neg] = 0.5 * (np.asarray(we.eval_derivative(xn), dtype=complex)
                              - np.asarray(po.eval_derivative(xn), dtype=complex))
        if self.even_solution.target.is_real and self.odd_solution.target.is_real:
            out = out.real
        if np.ndim(x):
            return out
        return float(out[0]) if out.dtype != complex else complex(out[0])

    def to_dict(self):
        return {"even": self.even_solution.to_dict(),
                "odd": self.odd_solution.to_dict(),
                "residuals": list(self.residuals)}


def _pushforward_moment_quadrature(sol):
    """Quadratures over (0, inf) of x^(2j+1) 2 phi(x^2) for every order j
    of the half solution: whole-line moment 2j of the even half pushed
    through x -> x^2 with weight 2x, and moment 2j+1 of the odd half
    pushed with weight 2, are both this integral."""
    return _shared_node_moments(
        sol, lambda x: 2 * x * sol.eval_mp(x * x), lambda x: x * x,
        _SQUARE_POINTS, extra_dps=10)


def reduction_roundtrip(target, ws, override_gamma2=False,
                        tolerance=DEFAULT_TOLERANCE):
    """Split the target into even and odd entry streams, solve the two
    half problems, push both through x -> x^2 and symmetrize, and verify
    by quadrature that the whole-line moments reproduce every entry."""
    if not isinstance(target, SequenceTarget):
        target = SequenceTarget(tuple(target))
    _gamma2_gate(ws, override_gamma2)
    ent = target.entries
    even = SequenceTarget(ent[0::2], h=target.h)
    odd = SequenceTarget(ent[1::2], h=target.h) if len(ent) > 1 else None
    sol_e = solve_moments(even, ws, tolerance=tolerance, gate=False)
    if odd is None:
        odd = SequenceTarget((0j,), h=target.h)
    sol_o = solve_moments(odd, ws, tolerance=tolerance, gate=False)
    pushed = (_pushforward_moment_quadrature(sol_e),
              _pushforward_moment_quadrature(sol_o))
    residuals = []
    for p, a_p in enumerate(ent):
        q = pushed[p % 2][p // 2]
        with mp.workdps(40):
            rel = float(abs(q - mp.mpc(a_p))) / max(1.0, abs(a_p))
        residuals.append(rel)
    worst = max(residuals)
    if worst > tolerance:
        raise IllConditioned(
            "reduction residual %.3e above tolerance %.1e" % (worst, tolerance))
    return ReductionResult(sol_e, sol_o, tuple(residuals))
