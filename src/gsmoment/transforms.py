"""Operators on test functions and on moment sequences.

Function side: multiply/divide by x (closed within the atom families),
parity split and reflection, folding onto the half line, and the two
substitution pushforwards x -> sqrt(x) and x -> x^2. The substitutions
leave the atom families, so they return handle objects that keep the
base function plus a small table of chain-rule terms; derivatives of a
handle are exact, with the chain depth capped.

Sequence side: even/odd entry extraction, interleaving, the quarter-turn
twist b_p = (-i)^p a_p, and convolution against a multiplier jet with an
exact inverse (rational arithmetic when the inputs are exact).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .atoms import FLAT, GAUSS, TestFunction, gauss_moment, moment_sum
from .bessel import flat_moment
from .errors import (DepthExceeded, InvalidParameter, SingularMultiplier,
                     UnsupportedAtom)

MAX_CHAIN_ORDER = 8


def halfline_moment(phi, nu):
    """Integral of x^nu phi(x) over (0, inf), closed form. Flat atoms need
    an integer or half-integer nu; Gaussian atoms need nu + k > -1."""
    terms = []
    for atom, coeff in phi.atoms:
        if atom.kind == FLAT:
            if atom.reflected:
                continue
            terms.append((coeff, flat_moment(nu + atom.k)))
        else:
            n = nu + atom.k
            if n <= -1.0:
                raise InvalidParameter(
                    "half-line moment diverges for power %s" % str(nu))
            terms.append((coeff, gauss_moment(n) / 2.0))
    total = moment_sum(terms, nu)
    return total.real if phi.is_real else total


def multiply_by_x(phi):
    out = []
    for atom, coeff in phi.atoms:
        c = -coeff if atom.reflected else coeff
        out.append((atom.kind, atom.k + 1, c.real, c.imag, atom.reflected))
    return TestFunction(out)


def divide_by_x(phi):
    """Division stays inside the flat family only."""
    out = []
    for atom, coeff in phi.atoms:
        if atom.kind != FLAT:
            raise UnsupportedAtom("division by x needs flat_halfline atoms")
        if atom.k - 1 < -8:
            raise UnsupportedAtom("flat power floor reached")
        c = -coeff if atom.reflected else coeff
        out.append((atom.kind, atom.k - 1, c.real, c.imag, atom.reflected))
    return TestFunction(out)


def reflect(phi):
    """x -> phi(-x)."""
    out = []
    for atom, coeff in phi.atoms:
        out.append((atom.kind, atom.k, coeff.real, coeff.imag,
                    not atom.reflected))
    return TestFunction(out)


def even_part(phi):
    half = phi * 0.5
    return half + (reflect(phi) * 0.5)


def odd_part(phi):
    half = phi * 0.5
    return half - (reflect(phi) * 0.5)


def even_odd_parts(phi):
    return even_part(phi), odd_part(phi)


def fold(phi):
    """phi(x) + phi(-x); meant to be read on (0, inf), where its moments
    are halfline_moment of the returned sum."""
    return phi + reflect(phi)


class SubstitutionHandle:
    """Pushforward of a test function under x -> sqrt(x) or x -> x^2.

    Stored as a table {(j, e): c}: for the sqrt rule a term contributes
    c * x^(e/2) * phi^(j)(sqrt x), for the square rule c * x^e * phi^(j)(x^2).
    Differentiation updates the table exactly; depth is capped because
    each derivative of the sqrt rule lowers the exponent without bound.
    """

    def __init__(self, base, rule, terms):
        if rule not in ("sqrt", "square"):
            raise InvalidParameter("unknown substitution rule %r" % rule)
        self.base = base
        self.rule = rule
        self._orders = [dict(terms)]

    def _table(self, m):
        if m > MAX_CHAIN_ORDER:
            raise DepthExceeded(
                "substitution derivative order %d beyond cap %d"
                % (m, MAX_CHAIN_ORDER))
        while len(self._orders) <= m:
            prev = self._orders[-1]
            nxt = {}

            def add(key, val):
                nxt[key] = nxt.get(key, 0j) + val

            for (j, e), c in prev.items():
                if self.rule == "sqrt":
                    if e != 0:
                        add((j, e - 2), c * (e / 2.0))
                    add((j + 1, e - 1), c * 0.5)
                else:
                    if e != 0:
                        add((j, e - 1), c * e)
                    add((j + 1, e + 1), 2.0 * c)
            self._orders.append({k: v for k, v in nxt.items() if v != 0})
        return self._orders[m]

    def eval_derivative(self, x, m=0):
        """m-th derivative at x > 0 (x >= 0 for the square rule)."""
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        if self.rule == "sqrt" and np.any(x_arr <= 0.0):
            raise InvalidParameter("sqrt pushforward lives on x > 0")
        table = self._table(m)
        inner = np.sqrt(x_arr) if self.rule == "sqrt" else np.square(x_arr)
        total = np.zeros(x_arr.shape, dtype=complex)
        for (j, e), c in table.items():
            power = x_arr ** (e / 2.0) if self.rule == "sqrt" else x_arr ** float(e)
            total += c * power * np.asarray(
                self.base.eval_derivative(inner, j), dtype=complex)
        if self.base.is_real and all(c.imag == 0 for c in table.values()):
            total = total.real
        if np.ndim(x):
            return total
        return float(total[0]) if total.dtype != complex else complex(total[0])

    def __call__(self, x):
        return self.eval_derivative(x, 0)

    def moment(self, p):
        """p-th moment over (0, inf) of the undifferentiated handle."""
        if p < 0:
            raise InvalidParameter("moment order must be >= 0")
        total = 0j
        for (j, e), c in self._orders[0].items():
            if j != 0:
                raise InvalidParameter(
                    "moments are defined for order-zero handles only")
            if self.rule == "sqrt":
                total += 2.0 * c * halfline_moment(self.base, 2 * p + e + 1)
            else:
                total += 0.5 * c * halfline_moment(self.base, (p + e - 1) / 2.0)
        if isinstance(total, complex) and total.imag == 0.0:
            return total.real
        return total


def sqrt_substitute(phi):
    """psi(x) = phi(sqrt x) on (0, inf); mu_p(psi) = 2 mu_{2p+1}(phi) with
    the base moments read over the half line."""
    return SubstitutionHandle(phi, "sqrt", {(0, 0): 1.0 + 0j})


def square_substitute(phi, weighted=True):
    """weighted: psi(x) = 2 x phi(x^2), even moments mu_{2q} = mu_q(phi);
    plain: psi(x) = 2 phi(x^2), odd moments mu_{2q+1} = mu_q(phi)."""
    if weighted:
        return SubstitutionHandle(phi, "square", {(0, 1): 2.0 + 0j})
    return SubstitutionHandle(phi, "square", {(0, 0): 2.0 + 0j})


# ---------------------------------------------------------------- sequences

def even_entries(entries):
    return tuple(entries[0::2])


def odd_entries(entries):
    return tuple(entries[1::2])


def interleave(even, odd):
    """Even slots from the first stream, odd slots from the second,
    zeros where a stream has no entry. The result ends at the last real
    entry, so interleave(even_entries(a), odd_entries(a)) == tuple(a)."""
    length = 0
    if even:
        length = 2 * len(even) - 1
    if odd:
        length = max(length, 2 * len(odd))
    out = []
    for i in range(length):
        stream, j = (even, i // 2) if i % 2 == 0 else (odd, i // 2)
        out.append(stream[j] if j < len(stream) else 0)
    return tuple(out)


def sign_twist(entries):
    """b_p = (-i)^p a_p. Applying it four times is the identity."""
    unit = (1, -1j, -1, 1j)
    return tuple(unit[p % 4] * a for p, a in enumerate(entries))


def _exactable(values):
    return all(isinstance(v, (int, Fraction)) for v in values)


def reciprocal_jet(jet):
    """Derivatives of 1/G at 0 from those of G, by power series inversion.
    Exact (Fraction/int) when every input entry is exact."""
    jet = list(jet)
    if not jet or jet[0] == 0:
        raise SingularMultiplier("multiplier vanishes at the origin")
    exact = _exactable(jet)
    if exact:
        gamma = [Fraction(c) / math.factorial(k) for k, c in enumerate(jet)]
    else:
        gamma = [c / math.factorial(k) for k, c in enumerate(jet)]
    g = [1 / gamma[0]]
    for n in range(1, len(jet)):
        s = sum(gamma[j] * g[n - j] for j in range(1, n + 1))
        g.append(-s / gamma[0])
    out = []
    for k, v in enumerate(g):
        w = v * math.factorial(k)
        if exact and w.denominator == 1:
            w = int(w)
        out.append(w)
    return tuple(out)


_BUILTIN_JETS = {
    "exp": lambda n: tuple(1 for _ in range(n)),
    "one": lambda n: tuple([1] + [0] * (n - 1)),
}


def _jet_for(multiplier, length):
    if isinstance(multiplier, str):
        try:
            return _BUILTIN_JETS[multiplier](length)
        except KeyError:
            raise InvalidParameter("unknown multiplier %r" % multiplier)
    jet = tuple(multiplier)
    if len(jet) < length:
        raise InvalidParameter("multiplier jet shorter than the sequence")
    if not jet or jet[0] == 0:
        raise SingularMultiplier("multiplier vanishes at the origin")
    return jet[:length]


def multiplier_shift(entries, multiplier="exp"):
    """b_p = sum_n C(p, n) a_n (1/G)^(p-n)(0); the binomial convolution
    of the sequence against the reciprocal multiplier jet."""
    entries = tuple(entries)
    jet = _jet_for(multiplier, len(entries))
    inv = reciprocal_jet(jet)
    return _binomial_convolve(entries, inv)


def multiplier_unshift(entries, multiplier="exp"):
    """Inverse of multiplier_shift: convolve against the jet of G itself."""
    entries = tuple(entries)
    jet = _jet_for(multiplier, len(entries))
    return _binomial_convolve(entries, jet)


def _binomial_convolve(entries, jet):
    out = []
    for p in range(len(entries)):
        s = 0
        for n in range(p + 1):
            s += math.comb(p, n) * entries[n] * jet[p - n]
        out.append(s)
    return tuple(out)


# external operator vocabulary; names fixed as part of the file format
OPERATORS = {
    "div_x": ("function", divide_by_x),
    "mul_x": ("function", multiply_by_x),
    "sqrt_sub": ("function", sqrt_substitute),
    "square_sub": ("function", square_substitute),
    "even_part": ("function", even_part),
    "odd_part": ("function", odd_part),
    "fold": ("function", fold),
    "te": ("sequence", even_entries),
    "to": ("sequence", odd_entries),
    "interleave_even": ("sequence", lambda e: interleave(e, ())),
    "sign_twist": ("sequence", sign_twist),
}


def apply_operator(tag, operand):
    try:
        domain, fn = OPERATORS[tag]
    except KeyError:
        raise InvalidParameter("unknown operator tag %r" % tag)
    return fn(operand)
