"""Independent references for checking the program's outputs.

Nothing here imports gsmoment. The moment references are Bessel sums
sum_k c_k 2 K_{p+k+1}(2), with K_n(2) built by the forward recurrence
K_{n+1}(x) = K_{n-1}(x) + (2n/x) K_n(x) (DLMF 10.29.1) from K_0 and K_1,
at a precision above the solve's. The half-plane references are the
closed form of the transform of one flat atom (DLMF 10.32.10,
Gradshteyn-Ryzhik 3.471.9):

    integral_0^inf t^(k+p) e^(-t - 1/t) e^(itz) dt = 2 a^(-nu/2) K_nu(2 sqrt a),

with a = 1 - iz and nu = k + p + 1, times i^p for the p-th derivative.
The verdict references restate the theory for gevrey(alpha) and
qgevrey(q). test_refs.py checks the formulas against mpmath.quad.
"""

from __future__ import annotations

import math
import re

import mpmath
from mpmath import mp

_COMPLEX_STR = re.compile(r"^\((\S+) ([+-]) (\S+)j\)$")


def parse_coefficient(text):
    """One entry of MomentSolution.coefficients as an mpmath number.

    Real values print as plain decimals; complex ones as "(re + imj)",
    which mpmath cannot read back, so the two parts are split here."""
    text = text.strip()
    m = _COMPLEX_STR.match(text)
    if m is None:
        return mpmath.mpf(text)
    re_part, sign, im_part = m.groups()
    im = mpmath.mpf(im_part)
    return mpmath.mpc(mpmath.mpf(re_part), -im if sign == "-" else im)


def bessel_k2(n_max):
    """K_0(2), ..., K_{n_max}(2) at the current mpmath precision."""
    vals = [mp.besselk(0, 2), mp.besselk(1, 2)]
    for n in range(1, n_max):
        vals.append(vals[n - 1] + n * vals[n])
    return vals[:n_max + 1]


def _coerce(coeffs):
    """Coefficients (mpmath numbers, Python numbers or printed strings) as
    mpc values, read at a precision above any solve rung."""
    with mp.workprec(4096):
        return [parse_coefficient(c) if isinstance(c, str)
                else mpmath.mpc(c) for c in coeffs]


def flat_moments(coeffs, powers, orders, bits):
    """sum_j c_j 2 K_{p + k_j + 1}(2) for each p in orders, as mpc.

    coeffs are mpmath numbers or strings of MomentSolution.coefficients;
    powers are the atom powers k_j."""
    cs = _coerce(coeffs)
    with mp.workprec(bits):
        table = bessel_k2(max(orders) + max(powers) + 2)
        return [mp.fsum(c * 2 * table[p + k + 1] for c, k in zip(cs, powers))
                for p in orders]


def solution_moments(coefficients, bits):
    """Moments 0..degree of sum_k c_k x^k e^(-x-1/x) from the printed
    coefficients, at bits of precision."""
    n = len(coefficients)
    return flat_moments(coefficients, range(n), range(n), bits)


def relative_gap(got, want):
    """|got - want| / max(1, |want|), the solver's own residual measure."""
    with mp.workdps(40):
        return float(abs(mpmath.mpc(got) - mpmath.mpc(want))
                     / max(1, abs(mpmath.mpc(want))))


def halfplane_value(coeffs, powers, z, p, dps=None):
    """f^(p)(z) for phi = sum_j c_j x^(k_j) e^(-x-1/x), as a Python complex.

    The working precision covers the cancellation between large
    coefficients: 30 digits plus the decimal size of the largest one."""
    cs = _coerce(coeffs)
    if dps is None:
        top = max(abs(complex(c)) for c in cs)
        dps = 30 + max(0, int(math.ceil(math.log10(top)))) if top > 0 else 30
    with mp.workdps(dps):
        a = 1 - 1j * mpmath.mpc(z)
        w = 2 * mp.sqrt(a)
        lo = min(powers) + p + 1
        hi = max(powers) + p + 1
        # K_nu(w) for nu = lo..hi by forward recurrence in the order
        ks = {lo: mp.besselk(lo, w)}
        if hi > lo:
            ks[lo + 1] = mp.besselk(lo + 1, w)
            for nu in range(lo + 1, hi):
                ks[nu + 1] = ks[nu - 1] + (2 * nu / w) * ks[nu]
        total = mp.fsum(c * 2 * a ** (-mpmath.mpf(k + p + 1) / 2)
                        * ks[k + p + 1] for c, k in zip(cs, powers))
        return complex(total * mpmath.mpc(0, 1) ** p)


def log_associated(log_weight, t, horizon):
    """M(t) = max over 0 <= p <= horizon of p log t - log M_p, brute force."""
    if t <= 0.0:
        return 0.0
    lt = math.log(t)
    return max(p * lt - log_weight(p) for p in range(horizon + 1))


def log_weighted_derivative(atoms, x, m, log_weight, h, horizon):
    """log(|phi^(m)(x)| e^(M(h x))) for phi = sum of flat atoms, with the
    derivative taken numerically by mpmath at 40 digits."""
    with mp.workdps(40):
        def phi(t):
            return mp.fsum(mpmath.mpc(re_, im_) * t ** k
                           for k, re_, im_ in atoms) * mp.exp(-t - 1 / t)
        d = mp.diff(phi, mpmath.mpf(x), m)
        return float(mp.log(abs(d))) + log_associated(log_weight, h * x,
                                                      horizon)


# ------------------------------------------------------------ verdicts

def expected_verdict(kind, param, condition):
    """Verdict the theory gives for gevrey(alpha) or qgevrey(q).

    gevrey: log-convex, dc and mg hold; gamma and gamma1 iff alpha > 1;
    gamma_r(r) iff alpha > r (gamma2 is r = 2); the beta2 family fails.
    qgevrey: mg fails, every other condition holds."""
    if kind == "qgevrey":
        return "Fails" if condition == "mg" else "Holds"
    if condition in ("lc", "dc", "mg"):
        return "Holds"
    if condition in ("gamma", "gamma1"):
        return "Holds" if param > 1.0 else "Fails"
    if condition == "gamma2":
        return "Holds" if param > 2.0 else "Fails"
    if condition.startswith("gamma_r("):
        r = float(condition[len("gamma_r("):-1])
        return "Holds" if param > r else "Fails"
    if condition.startswith("beta2"):
        return "Fails"
    raise ValueError("no theory entry for %r" % condition)


def expected_transfers(kind, param):
    """interpolation_agreement by theory: each transfer keeps the base
    verdict on the interpolated side, so every entry agrees."""
    out = {}
    for label, base, interp in (("dc", "dc", "dc"),
                                ("gamma_halved", "gamma2", "gamma1"),
                                ("beta", "beta2", "beta2")):
        v = expected_verdict(kind, param, base)
        out[label] = {"base_condition": base, "base_verdict": v,
                      "interpolated_condition": interp,
                      "interpolated_verdict": v, "match": "agree"}
    return out
