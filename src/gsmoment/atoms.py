"""Test functions built from two atom families, with exact derivatives.

Atoms:

  * flat_halfline  a_k(x) = x^k exp(-1/x - x) for x > 0, zero for x <= 0.
    Flat at the origin: every derivative vanishes as x -> 0+, so the
    extension by zero is smooth. k is an integer, allowed down to -8 so
    that division by x stays inside the family.
  * gaussian_poly  g_k(x) = x^k exp(-x^2) on the whole line, k >= 0.

Derivatives are maintained symbolically: differentiating a (Laurent)
polynomial times the envelope stays in the same class, with integer
coefficients, so no finite differences enter anywhere. Evaluation runs in
a shifted log domain so that the huge polynomial factors and the tiny
envelopes never overflow or underflow each other.

Moments are closed forms: integral x^(p+k) exp(-1/x-x) dx over (0, inf)
equals 2 K_{p+k+1}(2) (modified Bessel, second kind), and the Gaussian
moments are Gamma((p+k+1)/2) for even p+k and zero for odd.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy.special import kv as _besselk

from .errors import DepthExceeded, InvalidParameter, UnsupportedAtom
from .weightseq import WeightSequence

FLAT = "flat_halfline"
GAUSS = "gaussian_poly"

MIN_FLAT_POWER = -8
MAX_DERIVATIVE_ORDER = 64
_CACHE_SIZE = 32  # entries kept by each least-recently-used module cache


def _cached(cache, key, make):
    """cache[key], from make() on a miss; beyond _CACHE_SIZE entries the
    least recently used one goes."""
    if key in cache:
        cache.move_to_end(key)
        return cache[key]
    value = cache[key] = make()
    if len(cache) > _CACHE_SIZE:
        cache.popitem(last=False)
    return value


@dataclass(frozen=True)
class Atom:
    kind: str
    k: int
    reflected: bool = False

    def __post_init__(self):
        if self.kind not in (FLAT, GAUSS):
            raise UnsupportedAtom("unknown atom kind %r" % self.kind)
        if not isinstance(self.k, int):
            raise InvalidParameter("atom power must be an integer")
        if self.kind == FLAT and self.k < MIN_FLAT_POWER:
            raise InvalidParameter(
                "flat_halfline power below %d" % MIN_FLAT_POWER)
        if self.kind == GAUSS and self.k < 0:
            raise InvalidParameter("gaussian_poly power must be >= 0")


# (kind, k) -> list of coefficient dicts, entry m holds the polynomial
# factor of the m-th derivative as {power: integer coefficient}; filled
# through _cached, so it keeps at most _CACHE_SIZE powers
_DERIV_CACHE = OrderedDict()


def _derivative_coeffs(kind, k, m):
    if m > MAX_DERIVATIVE_ORDER:
        raise DepthExceeded(
            "derivative order %d beyond cap %d" % (m, MAX_DERIVATIVE_ORDER))
    key = (kind, k)
    chain = _cached(_DERIV_CACHE, key, lambda: [{k: 1}])
    while len(chain) <= m:
        prev = chain[-1]
        nxt = {}
        for j, c in prev.items():
            if j != 0:
                nxt[j - 1] = nxt.get(j - 1, 0) + j * c
            if kind == FLAT:
                # envelope rule: E' = (x^-2 - 1) E
                nxt[j - 2] = nxt.get(j - 2, 0) + c
                nxt[j] = nxt.get(j, 0) - c
            else:
                # envelope rule: E' = -2x E
                nxt[j + 1] = nxt.get(j + 1, 0) - 2 * c
        chain.append({j: c for j, c in nxt.items() if c != 0})
    return chain[m]


def _atom_log_parts(atom, x, m):
    """(sign, log|value|) of the m-th derivative of the bare atom at x.

    Exact zero (outside support, or after full cancellation) reports
    log-magnitude -inf. The reflection h(x) = a(-x) contributes the parity
    factor (-1)^m and evaluation at -x.
    """
    x = np.asarray(x, dtype=float)
    y = -x if atom.reflected else x
    coeffs = _derivative_coeffs(atom.kind, atom.k, m)
    powers = np.array(sorted(coeffs), dtype=float)
    cvals = np.array([coeffs[int(j)] for j in powers], dtype=float)
    sign = np.zeros(x.shape, dtype=float)
    logabs = np.full(x.shape, -math.inf)
    if atom.kind == FLAT:
        inside = y > 0.0
    else:
        inside = np.isfinite(y)
    if not inside.any():
        return sign, logabs
    yi = y[inside]
    env = (-1.0 / yi - yi) if atom.kind == FLAT else -np.square(yi)
    nz = yi != 0.0
    logy = np.where(nz, np.log(np.abs(np.where(nz, yi, 1.0))), 0.0)
    # term magnitudes log|c_j| + j log y + envelope, summed after a shift
    logterm = np.log(np.abs(cvals))[:, None] + powers[:, None] * logy[None, :] \
        + env[None, :]
    if not nz.all():
        # at y = 0 only the constant term survives (gauss only; flat excludes 0)
        dead = (powers[:, None] > 0) & (~nz)[None, :]
        logterm = np.where(dead, -math.inf, logterm)
    shift = logterm.max(axis=0)
    safe_shift = np.where(np.isfinite(shift), shift, 0.0)
    signs = np.sign(cvals)[:, None]
    if atom.kind == GAUSS:
        neg = yi < 0.0
        odd = (powers % 2.0) != 0.0
        signs = np.where(odd[:, None] & neg[None, :], -signs, signs)
    total = np.sum(signs * np.exp(logterm - safe_shift[None, :]), axis=0)
    mag = np.where(total != 0.0, shift + np.log(np.abs(np.where(total != 0.0, total, 1.0))),
                   -math.inf)
    sgn = np.sign(total)
    if atom.reflected and m % 2 == 1:
        sgn = -sgn
    sign[inside] = sgn
    logabs[inside] = mag
    return sign, logabs


def _flat_moment(nu):
    """Integral of x^nu exp(-1/x - x) over (0, inf), which is
    2 K_{nu+1}(2), as a float; nu may be any real."""
    return 2.0 * float(_besselk(nu + 1, 2.0))


def _atom_moment(atom, p):
    """Closed-form p-th moment of the bare atom."""
    if atom.kind == FLAT:
        value = _flat_moment(p + atom.k)
    else:
        n = p + atom.k
        if n % 2 == 1:
            value = 0.0
        else:
            value = math.gamma((n + 1) / 2.0)
    if atom.reflected:
        value *= (-1.0) ** p
    return value


def _coerce_atom(spec):
    if isinstance(spec, tuple) and len(spec) == 2 and isinstance(spec[0], Atom):
        return spec
    if isinstance(spec, (tuple, list)):
        if len(spec) == 3:
            kind, k, coeff = spec
            return Atom(kind, int(k)), complex(coeff)
        if len(spec) == 4:
            kind, k, re, im = spec
            return Atom(kind, int(k)), complex(float(re), float(im))
        if len(spec) == 5:
            kind, k, re, im, reflected = spec
            return Atom(kind, int(k), bool(reflected)), complex(float(re), float(im))
    raise InvalidParameter("atom spec must be (kind, k, coeff) or "
                           "(kind, k, re, im[, reflected]), got %r" % (spec,))


class TestFunction:
    """Finite linear combination of atoms with complex coefficients."""

    __test__ = False  # not a pytest collectible despite the name

    def __init__(self, atoms):
        merged = {}
        for spec in atoms:
            atom, coeff = _coerce_atom(spec)
            if atom.kind == GAUSS and atom.reflected:
                # g_k(-x) = (-1)^k g_k(x): fold the reflection away
                if atom.k % 2:
                    coeff = -coeff
                atom = Atom(GAUSS, atom.k)
            merged[atom] = merged.get(atom, 0j) + coeff
        items = [(a, c) for a, c in merged.items() if c != 0]
        items.sort(key=lambda ac: (ac[0].kind, ac[0].k, ac[0].reflected))
        self.atoms = tuple(items)

    @property
    def is_zero(self):
        return not self.atoms

    @property
    def is_real(self):
        return all(c.imag == 0.0 for _, c in self.atoms)

    @property
    def support(self):
        """'halfline' when the function vanishes on (-inf, 0], else 'real'."""
        if all(a.kind == FLAT and not a.reflected for a, _ in self.atoms):
            return "halfline"
        return "real"

    def __add__(self, other):
        return TestFunction(list(self.atoms) + list(other.atoms))

    def __mul__(self, scalar):
        return TestFunction([(a, complex(scalar) * c) for a, c in self.atoms])

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + (other * -1.0)

    def eval_derivative(self, x, m=0):
        """Pointwise m-th derivative. Scalar in, scalar out."""
        if m < 0:
            raise InvalidParameter("derivative order must be >= 0")
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        total = np.zeros(x_arr.shape, dtype=complex)
        for atom, coeff in self.atoms:
            sign, logabs = _atom_log_parts(atom, x_arr, m)
            vals = np.where(np.isfinite(logabs), sign * np.exp(logabs), 0.0)
            total += coeff * vals
        if self.is_real:
            total = total.real
        if np.ndim(x):
            return total
        return complex(total[0]) if not self.is_real else float(total[0])

    def __call__(self, x):
        return self.eval_derivative(x, 0)

    def log_abs_derivative(self, x, m=0):
        """log |phi^(m)(x)|, stable far below float underflow.

        Cancellation across atoms is carried out in a shifted domain, so
        the result is meaningful even where the value itself would flush
        to zero as a float.
        """
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        if not self.atoms:
            out = np.full(x_arr.shape, -math.inf)
            return out if np.ndim(x) else float(out[0])
        parts = []
        for atom, coeff in self.atoms:
            sign, logabs = _atom_log_parts(atom, x_arr, m)
            parts.append((coeff, sign, logabs + math.log(abs(coeff))))
        shift = np.maximum.reduce([la for _, _, la in parts])
        safe_shift = np.where(np.isfinite(shift), shift, 0.0)
        acc = np.zeros(x_arr.shape, dtype=complex)
        for coeff, sign, la in parts:
            scaled = np.where(np.isfinite(la), np.exp(la - safe_shift), 0.0)
            phase = coeff / abs(coeff)
            acc += phase * sign * scaled
        mag = np.abs(acc)
        out = np.where(mag > 0.0, shift + np.log(np.where(mag > 0.0, mag, 1.0)),
                       -math.inf)
        out = np.where(np.isfinite(shift), out, -math.inf)
        return out if np.ndim(x) else float(out[0])

    def moment(self, p):
        """p-th moment over the atom supports, by closed form."""
        if p < 0:
            raise InvalidParameter("moment order must be >= 0")
        total = 0j
        for atom, coeff in self.atoms:
            total += coeff * _atom_moment(atom, p)
        return total.real if self.is_real else total

    def to_dict(self):
        out = []
        for atom, coeff in self.atoms:
            entry = [atom.kind, atom.k, coeff.real, coeff.imag]
            if atom.reflected:
                entry.append(True)
            out.append(entry)
        return {"atoms": out}

    @classmethod
    def from_dict(cls, data):
        return cls(data["atoms"])

    def __repr__(self):
        return "TestFunction(%d atoms)" % len(self.atoms)


def flat(k, coeff=1.0):
    """The single atom x^k exp(-1/x - x) on (0, inf)."""
    return TestFunction([(FLAT, k, coeff)])


def gauss_poly(k, coeff=1.0):
    """The single atom x^k exp(-x^2) on the line."""
    return TestFunction([(GAUSS, k, coeff)])


def _grid_upper(ws, h):
    assoc = ws.associated()
    cap = assoc.max_argument / h * (1.0 - 1e-12)
    return min(1e4, cap)


def default_grid(ws, h, whole_line=False):
    """Log-spaced sampling grid with linear refinement near the origin."""
    upper = _grid_upper(ws, h)
    if upper <= 1e-3:
        pos = np.geomspace(upper * 1e-4, upper, 129)
    else:
        pos = np.union1d(np.geomspace(1e-4, upper, 257),
                         np.linspace(1e-4, min(2.0, upper), 65))
    if whole_line:
        return np.concatenate([-pos[::-1], pos])
    return pos


def _weighted_log_profile(phi, orders, h, ws, grid):
    """For each m in orders: log sup over the grid of |phi^(m)| e^{M(h|x|)}.

    Returns (per-order log sups, argmax locations)."""
    assoc = ws.associated()
    weight = assoc.values(h * np.abs(grid))
    sups, args = [], []
    for m in orders:
        vals = phi.log_abs_derivative(grid, m) + weight
        i = int(np.argmax(vals))
        sups.append(float(vals[i]))
        args.append(float(grid[i]))
    return sups, args


def _refine_about(x0, upper, spread):
    lo = max(x0 / spread, 1e-300)
    hi = min(x0 * spread, upper)
    if not (hi > lo):
        return np.array([x0])
    return np.linspace(lo, hi, 65)


def log_seminorm(phi, order_cap, h, ws, grid=None):
    """log of max_{m<=n} sup_x |phi^(m)(x)| exp(M(h|x|)), with refinement.

    Returns (log value, {"argmax_x", "argmax_m"}). The sup is taken over
    the supplied grid (or the default one) plus two local refinement
    passes around the running argmax, so refining the grid further can
    only increase the value within tolerance.
    """
    if not isinstance(ws, WeightSequence):
        raise InvalidParameter("seminorm needs a WeightSequence weight")
    if order_cap < 0:
        raise InvalidParameter("order cap must be >= 0")
    h = float(h)
    if not (h > 0.0):
        raise InvalidParameter("scale h must be positive")
    whole = phi.support == "real"
    if grid is None:
        grid = default_grid(ws, h, whole_line=whole)
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or phi.is_zero:
        return -math.inf, {"argmax_x": None, "argmax_m": None}
    orders = list(range(order_cap + 1))
    upper = _grid_upper(ws, h)
    sups, args = _weighted_log_profile(phi, orders, h, ws, grid)
    best_m = int(np.argmax(sups))
    best, best_x = sups[best_m], args[best_m]
    # two refinement passes around the argmax, wide then narrow
    for spread in (2.0, 1.04):
        local = _refine_about(abs(best_x) if best_x != 0 else 1e-4, upper, spread)
        if best_x < 0:
            local = -local
        s2, a2 = _weighted_log_profile(phi, [best_m], h, ws, local)
        if s2[0] > best:
            best, best_x = s2[0], a2[0]
    return best, {"argmax_x": best_x, "argmax_m": best_m}


def seminorm(phi, order_cap, h, ws, grid=None):
    """max over m <= order_cap of sup_x |phi^(m)(x)| exp(M(h|x|))."""
    value, _ = log_seminorm(phi, order_cap, h, ws, grid)
    if value == -math.inf:
        return 0.0
    return float(np.exp(value))


def dual_seminorm_pair(phi, weight_ws, amplitude_ws, h, order_cap, grid=None):
    """Norm combining a weight sequence in x and one in the derivative
    order: max over q <= cap of (h^q / A_q) sup_x |phi^(q)(x)| e^{M(h|x|)}."""
    if order_cap > amplitude_ws.horizon:
        raise InvalidParameter("order cap beyond the amplitude horizon")
    h = float(h)
    if not (h > 0.0):
        raise InvalidParameter("scale h must be positive")
    whole = phi.support == "real"
    if grid is None:
        grid = default_grid(weight_ws, h, whole_line=whole)
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or phi.is_zero:
        return 0.0
    orders = list(range(order_cap + 1))
    sups, _ = _weighted_log_profile(phi, orders, h, weight_ws, grid)
    best = -math.inf
    lnh = math.log(h)
    for q in orders:
        best = max(best, q * lnh - amplitude_ws.log_weight(q) + sups[q])
    return float(np.exp(best)) if best > -math.inf else 0.0
