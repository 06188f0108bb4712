"""Holomorphic extensions of half-line test functions.

f(z) = integral over (0, inf) of phi(t) e^{itz} dt is holomorphic on the
open upper half plane and continuous up to the boundary; its derivatives
come from differentiating under the integral, f^(p)(z) = integral of
(it)^p phi(t) e^{itz} dt, never from finite differences. At z = 0 this
collapses to i^p times the p-th moment of phi, which ties the boundary
jet of f to a moment sequence.

For the flat atoms t^k e^{-t-1/t} the integral has a closed form
(DLMF 10.32.10): with a = 1 - iz and nu = k + p + 1,

    integral of (it)^p t^k e^{-t-1/t} e^{itz} dt = 2 i^p a^{-nu/2} K_nu(2 sqrt a).

Every evaluation sums these terms in arbitrary precision, over one run
of K orders from the bessel module; one run serves every order p asked
for at a point. Since Re a >= 1 on the closed half plane, w = 2 sqrt a
has |w| >= 2 and |arg w| < pi/4, where the run's seeds K_0(w), K_1(w)
come from Steed's continued fraction once |w| is large enough (see
bessel.py). The terms of a moment solution are large and cancel near
the boundary, so the working precision grows by the digits the sum
loses, read off the terms themselves, until the requested digits
survive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp

from .atoms import TestFunction
from .bessel import flat_moment, k_run
from .errors import (ExtrapolationDivergence, IllConditioned,
                     InvalidParameter, UnsupportedSupport)
from .solver import (MomentSolution, SequenceTarget, _checked_solve_args,
                     solve_moments)
from .transforms import sign_twist

DERIVATIVE_CAP = 32
_FLOAT_DPS = 20       # digits behind the complex returned by eval_derivative
_GUARD_DPS = 5        # digits kept beyond the cancellation estimate
_MAX_WORK_DPS = 2000  # refuse sums that cancel below this precision

_I_POWER = (1.0 + 0j, 1j, -1.0 + 0j, -1j)


def _checked_argument(z, p):
    """z as a complex, refused unless it is finite and in the closed upper
    half plane and p is an integer derivative order in 0..DERIVATIVE_CAP."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise InvalidParameter("z must be finite")
    if z.imag < 0.0:
        raise InvalidParameter("the domain is the closed upper half plane")
    if not isinstance(p, int) or p < 0:
        raise InvalidParameter("derivative order must be an integer >= 0")
    if p > DERIVATIVE_CAP:
        raise InvalidParameter(
            "derivative order %d beyond cap %d" % (p, DERIVATIVE_CAP))
    return z


def _transform(coeffs, z, ps, dps):
    """[f^(p)(z) for p in ps] for phi = sum of c_k t^k e^{-t-1/t} over
    the (k, c_k) pairs, each correct to dps significant digits. One K run
    per working precision serves every order still open; an order whose
    sum cancels asks for more digits, and the next pass works at the
    most any open order asked for."""
    if not coeffs:
        return [mp.mpc(0)] * len(ps)
    values = {}
    need = dict.fromkeys(ps, dps + _GUARD_DPS)
    while need:
        work = max(need.values())
        # K_{-nu} = K_nu, so the run covers |nu| only
        sizes = [abs(k + p + 1) for k, _ in coeffs for p in need]
        lo, hi = min(sizes), max(sizes)
        with mp.workdps(work):
            root = mp.sqrt(1 - 1j * mp.mpc(z))
            ks = k_run(lo, hi, 2 * root)
            for p in list(need):
                terms = [mp.mpc(c) * root ** -(k + p + 1)
                         * ks[abs(k + p + 1) - lo] for k, c in coeffs]
                total = mp.fsum(terms)
                top = max(abs(t) for t in terms)
                lost = work if total == 0 else \
                    max(0, int(math.ceil(float(mp.log10(top / abs(total))))))
                if work - lost >= dps:
                    values[p] = 2 * mp.mpc(_i_power(p)) * total
                    del need[p]
                elif work >= _MAX_WORK_DPS:
                    raise IllConditioned("half-plane value cancels beyond "
                                         "%d digits" % _MAX_WORK_DPS)
                else:
                    need[p] = min(_MAX_WORK_DPS,
                                  max(work + 1, dps + lost + _GUARD_DPS))
    return [values[p] for p in ps]


class HalfPlaneFunction:
    """f(z) = integral of phi(t) e^{itz} over (0, inf), Im z >= 0."""

    def __init__(self, source):
        if isinstance(source, MomentSolution):
            self._solution = source
            phi = source.function
        else:
            self._solution = None
            phi = source
        if not isinstance(phi, TestFunction):
            raise InvalidParameter("source must be a test function or a "
                                   "moment solution")
        if phi.support != "halfline":
            raise UnsupportedSupport(
                "the transform needs a function supported on (0, inf)")
        self.phi = phi
        # (power, coefficient) pairs; a solution's float view in .function
        # loses the cancellation between its terms
        if self._solution is not None:
            self._coeffs = tuple((k, c) for k, c
                                 in enumerate(source._mp_coeffs) if c != 0)
        else:
            self._coeffs = tuple((atom.k, c) for atom, c in phi.atoms)

    # -------------------------------------------------------- float path

    def eval_derivative(self, z, p=0):
        """f^(p)(z) from the Bessel closed form, as a complex."""
        z = _checked_argument(z, p)
        return complex(_transform(self._coeffs, z, (p,), _FLOAT_DPS)[0])

    def __call__(self, z):
        return self.eval_derivative(z, 0)

    def modulus_bound(self):
        """integral of |phi|, a uniform bound for |f| on the half plane."""
        return sum((abs(coeff) * flat_moment(atom.k)
                    for atom, coeff in self.phi.atoms), 0.0)

    # ---------------------------------------------------- boundary values

    def boundary_derivative(self, p):
        """f^(p)(0) = i^p mu_p(phi), closed form."""
        if self._solution is not None:
            mu = complex(self._solution.moment_closed(p))
        else:
            mu = self.phi.moment(p)
        return _i_power(p) * mu

    def boundary_borel(self, p, start=0.05, steps=6, tolerance=1e-5):
        """Extrapolate f^(p)(i y) down the imaginary axis to y = 0 and
        cross-check the closed boundary value. Polynomial (Neville)
        extrapolation over y_j = start * 2^-j."""
        ys = [start * (0.5 ** j) for j in range(steps)]
        vals = [self.eval_derivative(complex(0.0, y), p) for y in ys]
        limit = _neville_at_zero(ys, vals)
        closed = self.boundary_derivative(p)
        gap = abs(limit - closed) / max(1.0, abs(closed))
        if gap > tolerance:
            raise ExtrapolationDivergence(
                "boundary extrapolation off by %.3e (tolerance %.1e)"
                % (gap, tolerance))
        return {"order": p, "extrapolated": limit, "closed_form": closed,
                "relative_gap": gap}

    # ------------------------------------------------- high-precision path

    def eval_mp(self, z, p=0, dps=30):
        """f^(p)(z) from the Bessel closed form, to dps digits."""
        z = _checked_argument(z, p)
        value = _transform(self._coeffs, z, (p,), dps)[0]
        with mp.workdps(dps):
            return +value


def _i_power(p):
    return _I_POWER[p % 4]


def _neville_at_zero(xs, ys):
    vals = list(ys)
    n = len(vals)
    for level in range(1, n):
        for i in range(n - level):
            x0, x1 = xs[i], xs[i + level]
            vals[i] = (x1 * vals[i] - x0 * vals[i + 1]) / (x1 - x0)
    return vals[0]


def holomorphy_residual(f, z, delta=5e-5, dps=30):
    """Central-difference Cauchy-Riemann defect at z; for the transform
    this equals delta^2 f'''(z) / 3 up to higher order, so it vanishes
    with delta exactly when f is holomorphic there. The four values come
    from eval_mp, the closed form at dps digits: the defect sits far
    below what differences of float values resolve once divided by
    delta."""
    zc = complex(z)
    if zc.imag - delta < 0.0:
        raise InvalidParameter("stencil dips below the boundary; raise Im z "
                               "or shrink delta")
    with mp.workdps(dps):
        d = mp.mpf(delta)
        fx1 = f.eval_mp(zc + delta, 0, dps=dps)
        fx0 = f.eval_mp(zc - delta, 0, dps=dps)
        fy1 = f.eval_mp(complex(zc.real, zc.imag + delta), 0, dps=dps)
        fy0 = f.eval_mp(complex(zc.real, zc.imag - delta), 0, dps=dps)
        res = (fx1 - fx0) / (2 * d) + 1j * (fy1 - fy0) / (2 * d)
        return complex(res)


def uhf_norm(f, ws, h, p_cap=8, radii=None, angles=32):
    """sup over p <= p_cap and a polar grid in the open half plane of
    h^p |f^(p)(z)| / M_p. Every order at a point comes from one K run."""
    if p_cap > DERIVATIVE_CAP:
        raise InvalidParameter("order cap beyond %d" % DERIVATIVE_CAP)
    if radii is None:
        radii = np.geomspace(1e-3, 1e3, 12)
    lnh = math.log(h)
    orders = range(p_cap + 1)
    logw = [float(ws.log_weight(p)) for p in orders]
    best = -math.inf
    for r in radii:
        for j in range(angles):
            theta = math.pi * (j + 0.5) / angles
            z = complex(r * math.cos(theta), r * math.sin(theta))
            values = _transform(f._coeffs, z, orders, _FLOAT_DPS)
            for p, value in zip(orders, values):
                v = abs(complex(value))
                if v > 0.0:
                    best = max(best, p * lnh - logw[p] + math.log(v))
    return 0.0 if best == -math.inf else float(np.exp(best))


@dataclass
class BorelRittResult:
    function: HalfPlaneFunction
    solution: MomentSolution
    residuals: tuple

    def to_dict(self):
        return {"solution": self.solution.to_dict(),
                "residuals": list(self.residuals)}


def borel_ritt_solve(entries, ws, h=1.0, override_gamma2=False,
                     tolerance=1e-5):
    """Construct f on the half plane with boundary jet f^(p)(0) = a_p.

    The quarter-turn twist maps the jet to a moment target: solving
    moments for (-i)^p a_p and transforming gives i^p mu_p = a_p. The
    solver verifies the moments by arbitrary-precision quadrature, and
    |i^p mu_p - a_p| = |mu_p - (-i)^p a_p|, so its residuals are the
    residuals of the boundary jet. The tolerance must be a finite
    number > 0."""
    _checked_solve_args(tolerance)
    entries = tuple(complex(v) for v in entries)
    twisted = sign_twist(entries)
    target = SequenceTarget(tuple(twisted), h=h)
    sol = solve_moments(target, ws, override_gamma2=override_gamma2)
    worst = max(sol.residuals)
    if worst > tolerance:
        raise ExtrapolationDivergence(
            "boundary jet residual %.3e above tolerance %.1e"
            % (worst, tolerance))
    return BorelRittResult(HalfPlaneFunction(sol), sol, sol.residuals)
