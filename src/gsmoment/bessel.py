"""Modified Bessel functions of the second kind, K_nu, for the library.

Three computations need K:

  * the moment solver's Gram matrix, the Hankel moment matrix of
    exp(-x - 1/x), whose entries are 2 K_{p+k+1}(2) at up to 4000 bits
    (k2_sequence);
  * the float moments of the flat atoms, integral of x^nu exp(-1/x - x)
    over (0, inf), which is 2 K_{nu+1}(2) at integer and half-integer nu
    (flat_moment);
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

The half-plane runs seed that loop with K_0(w) and K_1(w). Since
Re(1 - iz) >= 1 on the closed upper half plane, |w| >= 2 and
|arg w| < pi/4 there, which is where Steed's continued fraction CF2
converges fast (Temme 1975, J. Comput. Phys. 19; Thompson and Barnett
1986, J. Comput. Phys. 64; Numerical Recipes section 6.7, bessik). Its
iterations grow about as dps^2/|w|, while mpmath's besselk falls back to
cancelling 1F1 sums for 15 <~ |w| <~ 35 on the pure-Python backend and
takes 0.1-1 s per value there. So from |w| = _CF2_CROSSOVER on the seeds
come from CF2; below it, from mpmath at orders lo and lo + 1.
"""

from __future__ import annotations

import math

from mpmath import mp

from .errors import IllConditioned, InvalidParameter

_K2_GUARD = 20  # bits _K2 is held beyond the highest precision asked for
_K2_BITS = 0    # precision of _K2, guard bits included
_K2 = []        # K_0(2), K_1(2), ... at _K2_BITS bits

# |w| from which CF2 is no slower than two mp.besselk calls at 25, 50 and
# 200 digits: measured, it wins from |w| = 5 on at 25 digits and breaks
# even near 6 at 50 digits and near 8 at 200 digits
_CF2_CROSSOVER = 8
_K_GUARD = 10  # bits k_run works beyond the working precision

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


def _k01_cf2(w):
    """[K_0(w), K_1(w)] for complex w with Re w > 0 by Steed's CF2 (the
    x >= 2 branch of Numerical Recipes' bessik at mu = 0), summed until
    a term falls below 2^-prec of the sum."""
    prec = mp.prec
    b = 2 * (1 + w)
    d = 1 / b
    h = delh = d
    q1, q2 = mp.zero, mp.one
    q = c = mp.mpf(0.25)
    a = -q
    s = 1 + q * delh
    # about prec^2/(14|w|) terms are needed, so from the crossover on this
    # bound has a margin of ~14; it stops a sum that never settles
    for i in range(1, 64 + prec * prec // _CF2_CROSSOVER):
        a -= 2 * i
        c = -a * c / (i + 1)
        q1, q2 = q2, (q1 - b * q2) / a
        q += c * q2
        b += 2
        d = 1 / (b + a * d)
        delh = (b * d - 1) * delh
        h += delh
        ds = q * delh
        s += ds
        # mag bounds |x| <= 2^mag(x) < 4|x|: |ds| < 2^-prec |s|
        if mp.mag(ds) < mp.mag(s) - prec - 2:
            k0 = mp.sqrt(mp.pi / (2 * w)) * mp.exp(-w) / s
            return [k0, k0 * (w + mp.mpf(0.5) - h / 4) / w]
    raise IllConditioned("K_0(%s) continued fraction did not converge in "
                         "%d terms" % (mp.nstr(w, 8), i))


def k_run(lo, hi, w):
    """K_n(w) for n = lo..hi, worked out with _K_GUARD bits beyond the
    working precision and rounded to it: the forward recurrence from K_0
    and K_1 by CF2 when |w| >= _CF2_CROSSOVER, else from mpmath's values
    at the two lowest orders."""
    with mp.workprec(mp.prec + _K_GUARD):
        if abs(w) >= _CF2_CROSSOVER:
            ks = _k01_cf2(w)
            _recur(ks, 0, hi + 1, w)
            ks = ks[lo:hi + 1]
        else:
            ks = [mp.besselk(lo, w)]
            if hi > lo:
                ks.append(mp.besselk(lo + 1, w))
                _recur(ks, lo, hi - lo + 1, w)
    return [+k for k in ks]


def flat_moment(nu):
    """Integral of x^nu exp(-1/x - x) over (0, inf), which is
    2 K_{nu+1}(2), as a float, for integer and half-integer nu. Integer
    orders are read from k2_sequence; half-integer ones run the recurrence
    up from K_{1/2}(2) = (sqrt(pi)/2) e^-2 and K_{3/2}(2) = 1.5 K_{1/2}(2)
    (DLMF 10.39.2 and 10.29.1). The value is inf from |nu + 1| = 172 on,
    where it overflows a double."""
    order = abs(nu + 1)  # K_{-v} = K_v
    if order >= _FLOAT_OVERFLOW_ORDER:
        return math.inf
    if float(order).is_integer():
        n = int(order)
        return 2.0 * float(k2_sequence(n + 1, _FLOAT_BITS)[n])
    if not float(2 * order).is_integer():
        raise InvalidParameter(
            "flat moments need an integer or half-integer power, got %r" % nu)
    n = int(order)  # the order is n + 1/2
    with mp.workprec(_FLOAT_BITS + _K2_GUARD):
        half = mp.sqrt(mp.pi) / 2 * mp.exp(-2)
        ks = [half, 1.5 * half]
        _recur(ks, 0.5, n + 1, 2)
        return 2.0 * float(ks[n])
