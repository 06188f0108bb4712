"""Test functions built from two atom families, with exact derivatives.

Atoms:

  * flat_halfline  a_k(x) = x^k exp(-1/x - x) for x > 0, zero for x <= 0.
    Flat at the origin: every derivative vanishes as x -> 0+, so the
    extension by zero is smooth. k is an integer, allowed down to -8 so
    that division by x stays inside the family.
  * gaussian_poly  g_k(x) = x^k exp(-x^2) on the whole line, k >= 0.

Derivatives are maintained symbolically: the atoms of a test function
fall into three envelope groups (flat, reflected flat with y = -x, and
Gaussian), each one Laurent polynomial in y times its envelope E(y), and
differentiating such a product stays in the same class, so no finite
differences enter anywhere. Each instance holds the polynomials of every
order it has been asked for, each next to its term arrays (powers, log
moduli, unit phases and masks), built once per order, and the arrays that
depend only on the grid (log |y|, the envelopes and the masks of dead
and negative points), built once per grid for the last few grids.
Evaluation sums every term of every group once in a shifted log domain,
so that the huge polynomial factors and the tiny envelopes never
overflow or underflow each other.

Moments are closed forms: integral x^(p+k) exp(-1/x-x) dx over (0, inf)
equals 2 K_{p+k+1}(2) (modified Bessel, second kind), and the Gaussian
moments are Gamma((p+k+1)/2) for even p+k and zero for odd.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .bessel import flat_moment
from .errors import DepthExceeded, InvalidParameter, UnsupportedAtom
from .weightseq import WeightSequence

FLAT = "flat_halfline"
GAUSS = "gaussian_poly"

MIN_FLAT_POWER = -8
MAX_DERIVATIVE_ORDER = 64
_GRID_MEMO = 4  # grids whose arrays an instance keeps, last used first


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


def _next_order(group):
    """The group of the next derivative in x: d/dy of p(y) E(y) is
    (p'(y) + p(y) E'(y)/E(y)) E(y), and y = -x flips its sign for a
    reflected group."""
    kind, reflected, poly = group
    nxt = {}
    for j, c in poly.items():
        if j != 0:
            nxt[j - 1] = nxt.get(j - 1, 0) + j * c
        if kind == FLAT:
            # envelope rule: E' = (y^-2 - 1) E
            nxt[j - 2] = nxt.get(j - 2, 0) + c
            nxt[j] = nxt.get(j, 0) - c
        else:
            # envelope rule: E' = -2y E
            nxt[j + 1] = nxt.get(j + 1, 0) - 2 * c
    sign = -1 if reflected else 1
    return kind, reflected, {j: sign * c for j, c in nxt.items() if c != 0}


def _term_arrays(groups):
    """The term arrays of one derivative order: every group's terms c y^j,
    in increasing power, stacked as columns. Returns (spans, powers,
    log |c|, units c / |c|, odd-power mask, non-constant mask), spans
    holding (kind, reflected, first row, end row) per group."""
    spans, terms = [], []
    for kind, reflected, poly in groups:
        spans.append((kind, reflected, len(terms), len(terms) + len(poly)))
        terms += sorted(poly.items())
    powers = np.array([j for j, _ in terms], dtype=float)[:, None]
    mods = np.array([abs(c) for _, c in terms])[:, None]
    # c / |c| per coefficient in Python: numpy's complex division
    # overflows on a subnormal modulus
    units = np.array([c / abs(c) for _, c in terms])[:, None]
    return (tuple(spans), powers, np.log(mods), units,
            (powers % 2.0) != 0.0, powers != 0.0)


def _grid_arrays(x, kind, reflected):
    """The arrays of one envelope group that depend only on the grid x:
    (log |y|, log E(y), dead points, points at y = 0, points at y < 0),
    a mask None where the grid has no such point. Points off the group's
    support stand at y = 1 (flat) or y = 0 (Gaussian)."""
    y = -x if reflected else x
    inside = np.isfinite(y)
    if kind == FLAT:
        inside &= y > 0.0
        ys = np.where(inside, y, 1.0)
        env = -1.0 / ys - ys
    else:
        ys = np.where(inside, y, 0.0)
        env = -np.square(ys)
    nz = ys != 0.0
    logy = np.log(np.abs(np.where(nz, ys, 1.0)))
    neg = ys < 0.0
    return (logy, env, None if inside.all() else ~inside,
            None if nz.all() else ~nz, neg if neg.any() else None)


def gauss_moment(n):
    """Gamma((n + 1) / 2), the integral of x^n exp(-x^2) over the line for
    even n and twice that over the half line for any real n > -1; inf
    beyond float range, as for flat_moment."""
    try:
        return math.gamma((n + 1) / 2.0)
    except OverflowError:
        return math.inf


def moment_sum(terms, order):
    """The sum of c * m over (c, m) pairs of complex coefficients and real
    moments, with real and imaginary parts multiplied apart, so that a
    zero part of c times an infinite m adds 0; infinite parts of opposite
    sign are refused."""
    re = im = 0.0
    for c, m in terms:
        if c.real:
            re += c.real * m
        if c.imag:
            im += c.imag * m
    if math.isnan(re) or math.isnan(im):
        raise InvalidParameter("moment of order %s is inf - inf" % order)
    return complex(re, im)


def _atom_moment(atom, p):
    """Closed-form p-th moment of the bare atom."""
    if atom.kind == FLAT:
        value = flat_moment(p + atom.k)
    else:
        n = p + atom.k
        value = 0.0 if n % 2 == 1 else gauss_moment(n)
    if atom.reflected:
        value *= (-1.0) ** p
    return value


def _coerce_atom(spec):
    if isinstance(spec, tuple) and len(spec) == 2 and isinstance(spec[0], Atom):
        return spec
    try:
        if isinstance(spec, (tuple, list)):
            if len(spec) == 3:
                kind, k, coeff = spec
                return Atom(kind, int(k)), complex(coeff)
            if len(spec) == 4:
                kind, k, re, im = spec
                return Atom(kind, int(k)), complex(float(re), float(im))
            if len(spec) == 5:
                kind, k, re, im, reflected = spec
                return (Atom(kind, int(k), bool(reflected)),
                        complex(float(re), float(im)))
    except (OverflowError, TypeError, ValueError):  # not a number
        pass
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
        # the coefficients over the power of two at or below their largest
        # part, exactly, so the rule's growth (~1e100 at order 64) starts
        # from parts below 2; the log of that scale joins every shift
        top = max((max(abs(c.real), abs(c.imag)) for _, c in items),
                  default=1.0)
        e = math.frexp(top)[1] - 1
        self._log_scale = e * math.log(2.0)
        groups = {}
        for atom, coeff in items:
            scaled = complex(math.ldexp(coeff.real, -e),
                             math.ldexp(coeff.imag, -e))
            if scaled:  # a subnormal part can flush to zero
                groups.setdefault((atom.kind, atom.reflected), {})[atom.k] = \
                    scaled
        # entry m: the envelope groups (kind, reflected, {power: coeff}) of
        # the m-th derivative and their _term_arrays
        base = tuple((kind, reflected, poly) for (kind, reflected), poly
                     in groups.items())
        self._orders = ((base, _term_arrays(base)),)
        # (grid key, {(kind, reflected): _grid_arrays}), last used first
        self._grids = ()

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

    def _order(self, m):
        """The envelope groups of the m-th derivative and their term
        arrays."""
        if m < 0:
            raise InvalidParameter("derivative order must be >= 0")
        if m > MAX_DERIVATIVE_ORDER:
            raise DepthExceeded(
                "derivative order %d beyond cap %d" % (m, MAX_DERIVATIVE_ORDER))
        orders = self._orders
        while len(orders) <= m:
            nxt = tuple(_next_order(g) for g in orders[-1][0])
            if not all(cmath.isfinite(c) for _, _, poly in nxt
                       for c in poly.values()):
                raise DepthExceeded("derivative coefficients of order %d "
                                    "beyond float range" % len(orders))
            orders += ((nxt, _term_arrays(nxt)),)
        self._orders = orders  # one assignment, so readers see a whole table
        return orders[m]

    def _grid(self, x):
        """The _grid_arrays of every envelope group on x, from the memo of
        the last _GRID_MEMO grids."""
        key = (x.shape, x.tobytes())
        for k, arrays in self._grids:
            if k == key:
                return arrays
        arrays = {(kind, reflected): _grid_arrays(x, kind, reflected)
                  for kind, reflected, _ in self._orders[0][0]}
        self._grids = ((key, arrays),) + self._grids[:_GRID_MEMO - 1]
        return arrays

    def _shifted_sum(self, x, m):
        """(shift, acc) with phi^(m)(x) = acc * exp(shift) on a float array.

        Every term c y^j E(y) of every envelope group is summed once after
        one shift, the largest term log-magnitude at each point; shift is
        -inf, and acc 0, where no term is alive.
        """
        _, (spans, powers, logmods, units, odd, nonconst) = self._order(m)
        if not spans:
            return np.full(x.shape, -math.inf), np.zeros(x.shape, dtype=complex)
        grid = self._grid(x)
        logs, phases = [], []
        for kind, reflected, a, b in spans:
            logy, env, out, zero, neg = grid[kind, reflected]
            # log|c| + j log|y| + log E(y), summed in place: temporaries
            # of this size cost more than the arithmetic
            logterm = powers[a:b] * logy
            logterm += logmods[a:b]
            logterm += env
            # off the support every term dies; at y = 0 (Gaussian only)
            # every term but the constant one
            dead = out
            if zero is not None:
                at_zero = nonconst[a:b] & zero
                dead = at_zero if dead is None else dead | at_zero
            if dead is not None:
                np.copyto(logterm, -math.inf, where=dead)
            logs.append(logterm)
            # y^j = (-1)^j |y|^j
            phases.append(units[a:b] if neg is None else
                          np.where(odd[a:b] & neg, -1.0, 1.0) * units[a:b])
        if len(logs) == 1:
            logterm, phase = logs[0], phases[0]
        else:
            logterm = np.concatenate(logs)
            phase = np.concatenate([np.broadcast_to(p, t.shape)
                                    for p, t in zip(phases, logs)])
        shift = logterm.max(axis=0)
        logterm -= np.where(np.isfinite(shift), shift, 0.0)
        terms = phase * np.exp(logterm, out=logterm)
        return shift + self._log_scale, np.sum(terms, axis=0)

    def eval_derivative(self, x, m=0):
        """Pointwise m-th derivative. Scalar in, scalar out."""
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        shift, acc = self._shifted_sum(x_arr, m)
        total = acc * np.exp(shift)
        if self.is_real:
            total = total.real
        if np.ndim(x):
            return total
        return complex(total[0]) if not self.is_real else float(total[0])

    def __call__(self, x):
        return self.eval_derivative(x, 0)

    def log_abs_derivative(self, x, m=0):
        """log |phi^(m)(x)|, stable far below float underflow.

        Cancellation across terms is carried out in a shifted domain, so
        the result is meaningful even where the value itself would flush
        to zero as a float.
        """
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        shift, acc = self._shifted_sum(x_arr, m)
        with np.errstate(divide="ignore"):  # log 0 = -inf where acc is 0
            out = shift + np.log(np.abs(acc))
        return out if np.ndim(x) else float(out[0])

    def moment(self, p):
        """p-th moment over the atom supports, by closed form."""
        if p < 0:
            raise InvalidParameter("moment order must be >= 0")
        total = moment_sum(((c, _atom_moment(a, p)) for a, c in self.atoms),
                           p)
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
        # the sorted union of the two, as np.union1d gives it but without
        # the numpy.ma import that np.unique makes on its first call
        pos = np.concatenate([np.geomspace(1e-4, upper, 257),
                              np.linspace(1e-4, min(2.0, upper), 65)])
        pos.sort()
        pos = pos[np.concatenate([[True], pos[1:] != pos[:-1]])]
    if whole_line:
        return np.concatenate([-pos[::-1], pos])
    return pos


def _weighted_log_profile(phi, orders, h, ws, grid, rows):
    """For each m in orders: log sup over the grid of |phi^(m)| e^{M(h|x|)}.

    rows maps (grid bytes, m) to log|phi^(m)| on that grid and
    (grid bytes, "weight", h) to M(h|x|) on it; a missing row is computed
    and stored. Returns (per-order log sups, argmax locations)."""
    key = grid.tobytes()
    weight = rows.get((key, "weight", h))
    if weight is None:
        weight = rows[key, "weight", h] = ws.associated().values(
            h * np.abs(grid))
    sups, args = [], []
    for m in orders:
        row = rows.get((key, m))
        if row is None:
            row = rows[key, m] = phi.log_abs_derivative(grid, m)
        vals = row + weight
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


def _seminorm_scales(ws, order_caps, scales):
    """The scales as floats, once the weight, every order cap and every
    scale pass the checks of log_seminorm."""
    if not isinstance(ws, WeightSequence):
        raise InvalidParameter("seminorm needs a WeightSequence weight")
    if not all(isinstance(n, numbers.Integral) and n >= 0 for n in order_caps):
        raise InvalidParameter("order cap must be an integer >= 0")
    scales = [float(h) for h in scales]
    if not all(0.0 < h < math.inf for h in scales):
        raise InvalidParameter("scale h must be positive and finite")
    return scales


def _log_seminorm(phi, order_cap, h, ws, grid, rows):
    """log_seminorm on checked arguments and a float grid, reading and
    filling the derivative rows of _weighted_log_profile."""
    if grid.size == 0 or phi.is_zero:
        return -math.inf, {"argmax_x": None, "argmax_m": None}
    orders = list(range(order_cap + 1))
    upper = _grid_upper(ws, h)
    sups, args = _weighted_log_profile(phi, orders, h, ws, grid, rows)
    best_m = int(np.argmax(sups))
    best, best_x = sups[best_m], args[best_m]
    # two refinement passes around the argmax, wide then narrow
    for spread in (2.0, 1.04):
        local = _refine_about(abs(best_x) if best_x != 0 else 1e-4, upper, spread)
        if best_x < 0:
            local = -local
        s2, a2 = _weighted_log_profile(phi, [best_m], h, ws, local, rows)
        if s2[0] > best:
            best, best_x = s2[0], a2[0]
    return best, {"argmax_x": best_x, "argmax_m": best_m}


def log_seminorm(phi, order_cap, h, ws, grid=None):
    """log of max_{m<=n} sup_x |phi^(m)(x)| exp(M(h|x|)), with refinement.

    Returns (log value, {"argmax_x", "argmax_m"}). The sup is taken over
    the supplied grid (or the default one) plus two local refinement
    passes around the running argmax, so refining the grid further can
    only increase the value within tolerance.
    """
    (h,) = _seminorm_scales(ws, (order_cap,), (h,))
    if grid is None:
        grid = default_grid(ws, h, whole_line=phi.support == "real")
    grid = np.asarray(grid, dtype=float)
    return _log_seminorm(phi, order_cap, h, ws, grid, {})


def seminorm(phi, order_cap, h, ws, grid=None):
    """max over m <= order_cap of sup_x |phi^(m)(x)| exp(M(h|x|))."""
    value, _ = log_seminorm(phi, order_cap, h, ws, grid)
    if value == -math.inf:
        return 0.0
    return float(np.exp(value))


def dual_seminorm_pair(phi, weight_ws, amplitude_ws, h, order_cap, grid=None):
    """Norm combining a weight sequence in x and one in the derivative
    order: max over q <= cap of (h^q / A_q) sup_x |phi^(q)(x)| e^{M(h|x|)}."""
    (h,) = _seminorm_scales(weight_ws, (order_cap,), (h,))
    if order_cap > amplitude_ws.horizon:
        raise InvalidParameter("order cap beyond the amplitude horizon")
    whole = phi.support == "real"
    if grid is None:
        grid = default_grid(weight_ws, h, whole_line=whole)
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or phi.is_zero:
        return 0.0
    orders = list(range(order_cap + 1))
    sups, _ = _weighted_log_profile(phi, orders, h, weight_ws, grid, {})
    best = -math.inf
    lnh = math.log(h)
    for q in orders:
        best = max(best, q * lnh - amplitude_ws.log_weight(q) + sups[q])
    return float(np.exp(best)) if best > -math.inf else 0.0
