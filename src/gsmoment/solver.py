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

Solving is gated on the weight sequence: unless the classifier finds
that the ratio-tail condition at exponent 2 holds, the problem is
refused (the caller can override, and the override is recorded).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp

from .atoms import FLAT, TestFunction, log_seminorm
from .conditions import HOLDS, check_condition
from .errors import (ConditionRefused, IllConditioned, InvalidParameter,
                     TargetTooLarge)
from .transforms import square_substitute
from .weightseq import WeightSequence

DEGREE_CAP = 32
PRECISION_LADDER = (200, 400, 800, 1600, 2000)
DEFAULT_TOLERANCE = 1e-6
OVERFLOW_LOG = math.log(np.finfo(float).max)  # ~709.78

_QUAD_SPLIT = (0.0, 1.0, 5.0, 25.0, 90.0)


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


_GRAM_CACHE = {}


def _gram_rows(n, bits):
    """Rows of the moment matrix 2 K_{p+k+1}(2) at the given precision."""
    key = (n, bits)
    rows = _GRAM_CACHE.get(key)
    if rows is None:
        with mp.workprec(bits):
            vals = [2 * mp.besselk(m + 1, 2) for m in range(2 * n - 1)]
            rows = tuple(tuple(vals[p + k] for k in range(n))
                         for p in range(n))
        _GRAM_CACHE[key] = rows
    return rows


_GATE_CACHE = {}


def _gamma2_gate(ws, override):
    """Verdict of the ratio-tail condition at exponent 2; refuses unless
    it holds or the caller overrides."""
    key = json.dumps(ws.descriptor(), sort_keys=True)
    rep = _GATE_CACHE.get(key)
    if rep is None:
        rep = check_condition(ws, "gamma2")
        _GATE_CACHE[key] = rep
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
        """Independent check: arbitrary-precision quadrature of t^p phi(t)."""
        dps = self._headroom_dps(p)
        with mp.workdps(dps):
            def integrand(t):
                if t <= 0:
                    return mp.mpf(0)
                return t ** p * self.eval_mp(t)
            pts = list(_QUAD_SPLIT) + [mp.inf]
            return mp.quad(integrand, pts)

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


def _pushforward_moment_quadrature(sol, p, weighted):
    """Quadrature over (0, inf) of x^p times the squared-argument push of
    the half solution, at the half's own cancellation headroom."""
    dps = max(sol._headroom_dps(q) for q in range(sol.degree + 1)) + 10
    with mp.workdps(dps):
        two = mp.mpf(2)

        def integrand(x):
            if x <= 0:
                return mp.mpf(0)
            base = sol.eval_mp(x * x)
            w = two * x if weighted else two
            return x ** p * w * base
        pts = [0, 1, 3, 6, 10, mp.inf]
        return mp.quad(integrand, pts)


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
    residuals = []
    for p, a_p in enumerate(ent):
        if p % 2 == 0:
            q = _pushforward_moment_quadrature(sol_e, p, weighted=True)
        else:
            q = _pushforward_moment_quadrature(sol_o, p, weighted=False)
        with mp.workdps(40):
            rel = float(abs(q - mp.mpc(a_p))) / max(1.0, abs(a_p))
        residuals.append(rel)
    worst = max(residuals)
    if worst > tolerance:
        raise IllConditioned(
            "reduction residual %.3e above tolerance %.1e" % (worst, tolerance))
    return ReductionResult(sol_e, sol_o, tuple(residuals))
