"""Modified Bessel functions of the second kind, K_nu, for the library.

Three computations need K:

  * the moment solver's Gram matrix, the Hankel moment matrix of
    exp(-x - 1/x), whose entries are 2 K_{p+k+1}(2) at up to 4000 bits
    (k2_sequence);
  * the float moments of the flat atoms, integral of x^nu exp(-1/x - x)
    over (0, inf), which is 2 K_{nu+1}(2) (flat_moment);
  * the half-plane transform, K_n(w) for complex w = 2 sqrt(1 - iz)
    (k_run).

Integer orders at 2 come from one module-level sequence K_0(2), K_1(2),
... held at the highest precision asked for so far plus guard bits, and
rounded down by each caller. Its seeds are power series at z = 2:
K_0(2) = sum H_k/(k!)^2 - gamma I_0(2) (DLMF 10.31.2, where ln(z/2)
vanishes), and K_1(2) from the Wronskian I_0 K_1 + I_1 K_0 = 1/z (DLMF
10.28.2). Higher orders, at 2 and at any w, follow from one loop of
K_{n+1}(w) = K_{n-1}(w) + (2n/w) K_n(w) (DLMF 10.29.1), which is stable
forward for K; at w = 2 the factor 2n/w is exactly n.
"""

from __future__ import annotations

import math

from mpmath import mp

_K2_GUARD = 20  # bits _K2 is held beyond the highest precision asked for
_K2_BITS = 0    # precision of _K2, guard bits included
_K2 = []        # K_0(2), K_1(2), ... at _K2_BITS bits

_FLOAT_BITS = 53
_FLOAT_OVERFLOW_ORDER = 172  # 2 K_172(2) ~ 171! exceeds the largest double


def _recur(ks, first, count, w):
    """Extend ks = [K_first(w), K_{first+1}(w), ...], at least two
    entries long, to count entries by the forward recurrence."""
    while len(ks) < count:
        n = first + len(ks) - 1
        ks.append(ks[-2] + (2 * n / w) * ks[-1])


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


def k2_sequence(count, bits):
    """The list K_0(2), K_1(2), ... with at least count entries, accurate
    beyond bits: reseeded when bits asks for more precision than it
    holds, extended by the recurrence when it is too short."""
    global _K2_BITS
    if bits + _K2_GUARD > _K2_BITS:
        with mp.workprec(bits + _K2_GUARD):
            _K2[:] = _k2_seeds()
        _K2_BITS = bits + _K2_GUARD
    with mp.workprec(_K2_BITS):
        _recur(_K2, 0, count, 2)
    return _K2


def k_run(lo, hi, w):
    """K_n(w) for n = lo..hi at the working precision: mpmath for the two
    lowest orders, then the forward recurrence."""
    ks = [mp.besselk(lo, w)]
    if hi > lo:
        ks.append(mp.besselk(lo + 1, w))
        _recur(ks, lo, hi - lo + 1, w)
    return ks


def flat_moment(nu):
    """Integral of x^nu exp(-1/x - x) over (0, inf), which is
    2 K_{nu+1}(2), as a float; nu may be any real. Integer orders are
    read from k2_sequence, and the value is inf from |nu + 1| = 172 on,
    where it overflows a double."""
    order = abs(nu + 1)  # K_{-v} = K_v
    if order >= _FLOAT_OVERFLOW_ORDER:
        return math.inf
    if float(order).is_integer():
        n = int(order)
        return 2.0 * float(k2_sequence(n + 1, _FLOAT_BITS)[n])
    with mp.workprec(_FLOAT_BITS):
        return 2.0 * float(mp.besselk(order, 2))
