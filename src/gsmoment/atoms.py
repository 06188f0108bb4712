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
_WINDOW = 65  # points of a refinement window of the seminorm profile


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


def _power(k):
    """An atom power as an int: an integer, or a float of integral value;
    anything else, a bool or a string among them, is refused."""
    if isinstance(k, numbers.Integral) and not isinstance(k, (bool, np.bool_)):
        return int(k)
    if isinstance(k, float) and k.is_integer():
        return int(k)
    raise InvalidParameter("atom power must be an integer, got %r" % (k,))


def _coerce_atom(spec):
    """(Atom, complex coefficient) of one atom spec: an (Atom, coeff) pair,
    (kind, k, coeff) or (kind, k, re, im[, reflected]), with k an integer
    power and reflected a bool."""
    if isinstance(spec, tuple) and len(spec) == 2 and isinstance(spec[0], Atom):
        return spec
    if isinstance(spec, (tuple, list)) and len(spec) in (3, 4, 5):
        kind, k, *parts = spec
        reflected = parts.pop() if len(parts) == 3 else False
        if not isinstance(reflected, (bool, np.bool_)):
            raise InvalidParameter(
                "atom reflection must be a bool, got %r" % (reflected,))
        try:
            coeff = (complex(parts[0]) if len(parts) == 1
                     else complex(float(parts[0]), float(parts[1])))
        except (OverflowError, TypeError, ValueError):  # not a number
            pass
        else:
            return Atom(kind, _power(k), bool(reflected)), coeff
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
    return _grid_to(_grid_upper(ws, h), whole_line)


def _grid_to(upper, whole_line):
    """The default grid whose largest point is upper."""
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


def _log_profile(phi, ws, order_caps, scales, grid=None, refine=True):
    """The weighted log profile of phi, on checked order caps and scales.

    Returns (sups, cells). sups[i][m] is the log sup over the grid of
    |phi^(m)(x)| e^{M(h|x|)} at h = scales[i], for m up to the largest
    cap: the grid is the given one, or else the default grid of h, built
    once per distinct upper bound. cells holds (log value, argmax x,
    argmax order) for each (order cap, scale), order caps outer: the best
    grid point over the orders up to the cap, then two refinement passes
    about the running argmax, wide then narrow (None without refine).

    Each row log|phi^(m)| is computed once per distinct grid, and each
    pass evaluates the local grids of every cell at once: one
    log_abs_derivative call per distinct order over the concatenated
    distinct windows, and one weight call. A window that collapses to its
    one point is evaluated alone: numpy sums the terms of a one-point
    grid pairwise, but those of a longer grid one after another, and the
    two can differ in the last bit.
    """
    if grid is None:
        whole = phi.support == "real"
        uppers = [_grid_upper(ws, h) for h in scales]
        made = {u: _grid_to(u, whole) for u in dict.fromkeys(uppers)}
        grids = [made[u] for u in uppers]
    else:
        grids = [np.asarray(grid, dtype=float)] * len(scales)
    if phi.is_zero or any(g.size == 0 for g in grids):
        return None, [(-math.inf, None, None)] * (len(order_caps)
                                                  * len(scales))
    top = max(order_caps, default=-1)
    assoc = ws.associated()
    rows = {}  # id of a distinct grid -> its (orders x points) rows
    sups, args = [], []
    for g, h in zip(grids, scales):
        if id(g) not in rows:
            rows[id(g)] = np.array([phi.log_abs_derivative(g, m)
                                    for m in range(top + 1)]).reshape(top + 1,
                                                                      g.size)
        vals = rows[id(g)] + assoc.values(h * np.abs(g))
        idx = vals.argmax(axis=1)
        sups.append(vals[np.arange(top + 1), idx])
        args.append(g[idx])
    if not refine:
        return sups, None
    if grid is not None:  # past the zero check, as a custom grid needs none
        uppers = [_grid_upper(ws, h) for h in scales]
    cells = []
    for cap in order_caps:
        for i, h in enumerate(scales):
            m = int(np.argmax(sups[i][:cap + 1]))
            cells.append([float(sups[i][m]), float(args[i][m]), m, h,
                          uppers[i]])
    for spread in (2.0, 1.04):
        _refine_pass(phi, assoc, cells, spread)
    return sups, [tuple(c[:3]) for c in cells]


def _refine_pass(phi, assoc, cells, spread):
    """One refinement pass: each cell [log value, argmax x, argmax order,
    h, upper bound] takes the best point of a window of _WINDOW points
    from |x|/spread to |x| spread (capped at the upper bound, on the side
    of x), where it beats the cell's value."""
    keys = {}  # (low, high, negative) of each distinct window -> its index
    opened, alone = [], []  # (cell, window index) and (cell, its one point)
    for cell in cells:
        x, upper = cell[1], cell[4]
        x0 = abs(x) if x != 0 else 1e-4
        lo = max(x0 / spread, 1e-300)
        hi = min(x0 * spread, upper)
        if hi > lo:
            opened.append((cell, keys.setdefault((lo, hi, x < 0), len(keys))))
        else:
            alone.append((cell, np.array([-x0 if x < 0 else x0])))
    if opened:
        lo, hi, neg = (np.array(v) for v in zip(*keys))
        span = np.linspace(lo, hi, _WINDOW, axis=1)
        np.negative(span, out=span, where=neg[:, None])
        by_order = {}  # argmax order -> {window index: row of its values}
        for cell, w in opened:
            by_order.setdefault(cell[2], {})[w] = None
        for m, rows in by_order.items():
            ids = list(rows)
            found = phi.log_abs_derivative(span[ids].ravel(), m)
            rows.update(zip(ids, found.reshape(len(ids), _WINDOW)))
        wins = [w for _, w in opened]
        hs = np.array([cell[3] for cell, _ in opened])
        vals = np.array([by_order[cell[2]][w] for cell, w in opened])
        vals += assoc.values(np.abs(span[wins]) * hs[:, None])
        for (cell, w), row, i in zip(opened, vals, vals.argmax(axis=1)):
            if row[i] > cell[0]:
                cell[0], cell[1] = float(row[i]), float(span[w, i])
    for cell, x in alone:
        v = (phi.log_abs_derivative(x, cell[2])
             + assoc.values(cell[3] * np.abs(x)))[0]
        if v > cell[0]:
            cell[0], cell[1] = float(v), float(x[0])


def log_seminorm(phi, order_cap, h, ws, grid=None):
    """log of max_{m<=n} sup_x |phi^(m)(x)| exp(M(h|x|)), with refinement.

    Returns (log value, {"argmax_x", "argmax_m"}). The sup is taken over
    the supplied grid (or the default one) plus two local refinement
    passes around the running argmax, so refining the grid further can
    only increase the value within tolerance.
    """
    scales = _seminorm_scales(ws, (order_cap,), (h,))
    _, [(value, x, m)] = _log_profile(phi, ws, (order_cap,), scales, grid)
    return value, {"argmax_x": x, "argmax_m": m}


def seminorm(phi, order_cap, h, ws, grid=None):
    """max over m <= order_cap of sup_x |phi^(m)(x)| exp(M(h|x|))."""
    value, _ = log_seminorm(phi, order_cap, h, ws, grid)
    if value == -math.inf:
        return 0.0
    return float(np.exp(value))


def dual_seminorm_pair(phi, weight_ws, amplitude_ws, h, order_cap, grid=None):
    """Norm combining a weight sequence in x and one in the derivative
    order: max over q <= cap of (h^q / A_q) sup_x |phi^(q)(x)| e^{M(h|x|)}."""
    scales = _seminorm_scales(weight_ws, (order_cap,), (h,))
    if order_cap > amplitude_ws.horizon:
        raise InvalidParameter("order cap beyond the amplitude horizon")
    sups, _ = _log_profile(phi, weight_ws, (order_cap,), scales, grid,
                           refine=False)
    if sups is None:
        return 0.0
    best = -math.inf
    lnh = math.log(scales[0])
    for q in range(order_cap + 1):
        best = max(best, q * lnh - amplitude_ws.log_weight(q)
                   + float(sups[0][q]))
    return float(np.exp(best)) if best > -math.inf else 0.0
