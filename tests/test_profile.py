"""The weighted log profile against a copy of the per-cell path it
replaced, bit for bit.

The copy below is that path: each (order cap, scale) cell took the sup of
each order's row over its grid, then two refinement passes of 65 points
about the running argmax, each pass a separate evaluation, with the rows
shared through a dict keyed by grid bytes. membership_report,
log_seminorm and dual_seminorm_pair now evaluate every cell of a pass at
once, and must still give every value, argmax point and argmax order
exactly.
"""

import math

import numpy as np
import pytest

from gsmoment import (TestFunction, dual_seminorm_pair, gauss_poly, gevrey,
                      log_seminorm, membership_report, solve_moments,
                      unit_ball_target)
from gsmoment import atoms
from gsmoment.atoms import _grid_upper, default_grid

WS3 = gevrey(3.0, horizon=256)
WS1 = gevrey(1.0, horizon=256)
CAPS = (0, 2, 4, 8)
SCALES = (0.25, 1.0, 4.0)


def _weighted_log_profile(phi, orders, h, ws, grid, rows):
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


def _log_seminorm(phi, order_cap, h, ws, grid, rows):
    """(log value, argmax x, argmax order) of one cell."""
    if grid.size == 0 or phi.is_zero:
        return -math.inf, None, None
    orders = list(range(order_cap + 1))
    upper = _grid_upper(ws, h)
    sups, args = _weighted_log_profile(phi, orders, h, ws, grid, rows)
    best_m = int(np.argmax(sups))
    best, best_x = sups[best_m], args[best_m]
    for spread in (2.0, 1.04):
        local = _refine_about(abs(best_x) if best_x != 0 else 1e-4, upper,
                              spread)
        if best_x < 0:
            local = -local
        s2, a2 = _weighted_log_profile(phi, [best_m], h, ws, local, rows)
        if s2[0] > best:
            best, best_x = s2[0], a2[0]
    return best, best_x, best_m


def _reference_cells(phi, ws, order_caps=CAPS, scales=SCALES, grid=None):
    """Every (order cap, scale) cell by the per-cell path, order caps
    outer, the default grids built per scale unless a grid is given."""
    whole = phi.support == "real"
    grids = {h: default_grid(ws, h, whole_line=whole) if grid is None
             else np.asarray(grid, dtype=float) for h in scales}
    rows = {}
    return [_log_seminorm(phi, n, h, ws, grids[h], rows)
            for n in order_caps for h in scales]


def _reference_dual(phi, weight_ws, amplitude_ws, h, order_cap):
    grid = default_grid(weight_ws, h, whole_line=phi.support == "real")
    if phi.is_zero:
        return 0.0
    orders = list(range(order_cap + 1))
    sups, _ = _weighted_log_profile(phi, orders, h, weight_ws, grid, {})
    best = -math.inf
    for q in orders:
        best = max(best, q * math.log(h) - amplitude_ws.log_weight(q)
                   + sups[q])
    return float(np.exp(best)) if best > -math.inf else 0.0


def _bits(cell):
    return tuple(v.hex() if isinstance(v, float) else v for v in cell)


def _ball(seed):
    target = unit_ball_target(WS3, 12, 0.25, seed=seed)
    return solve_moments(target, WS3, verify=False).function


def _case(name):
    if name.startswith("ball"):
        return _ball(int(name[4:])), WS3
    if name == "whole-line":
        reflected = TestFunction([("flat_halfline", 1, 0.5, -0.25, True)])
        return gauss_poly(2) + reflected, WS3
    # on gevrey(1) the grid uppers are 1024 / 256 / 64: no row is shared
    phi = TestFunction([("flat_halfline", 0, 1.0),
                        ("flat_halfline", 2, -0.5j),
                        ("flat_halfline", -1, 2.0)])
    return phi, WS1


CASES = ["ball0", "ball1", "ball2", "ball3", "whole-line", "unshared"]


@pytest.mark.parametrize("name", CASES)
def test_membership_cells_match_the_per_cell_path(name):
    phi, ws = _case(name)
    if name == "unshared":
        assert len({default_grid(ws, h)[-1] for h in SCALES}) == 3
    report = membership_report(phi, ws)
    got = [(-math.inf if c["log_value"] is None else c["log_value"],
            c["argmax_x"], c["argmax_order"]) for c in report["cells"]]
    want = _reference_cells(phi, ws)
    assert [_bits(c) for c in got] == [_bits(c) for c in want]
    if name == "whole-line":
        assert any(x < 0 for _, x, _ in got)


@pytest.mark.parametrize("name", CASES)
def test_log_seminorm_and_dual_pair_match_the_per_cell_path(name):
    phi, ws = _case(name)
    for cap, h in ((0, 1.0), (3, 0.5), (8, 4.0)):
        value, where = log_seminorm(phi, cap, h, ws)
        got = (value, where["argmax_x"], where["argmax_m"])
        want = _reference_cells(phi, ws, (cap,), (h,))[0]
        assert _bits(got) == _bits(want)
        dual = dual_seminorm_pair(phi, ws, WS3, h, cap)
        assert dual.hex() == _reference_dual(phi, ws, WS3, h, cap).hex()


def test_collapsed_windows_match_the_per_cell_path():
    # x^2462 exp(-x) peaks near the grid's far point 25000, beyond the
    # default grid's upper bound 1e4, so a cell whose argmax lies there
    # refines on its one point; the near points win the order-8 cells of
    # the smaller scales, whose windows stay open
    phi = TestFunction([("flat_halfline", 0, 1.0),
                        ("flat_halfline", 2462, 1.0)])
    grid = np.array([0.02, 0.05, 0.1, 0.2, 2.5e4])
    want = _reference_cells(phi, WS3, grid=grid)
    _, got = atoms._log_profile(phi, WS3, CAPS, list(SCALES), grid)
    assert [_bits(c) for c in got] == [_bits(c) for c in want]
    far = {m for _, x, m in got if x == 2.5e4}
    near = {m for _, x, m in got if x < 1.0}
    assert far == {0} and len(near) == 4
    for (cap, h), cell in zip([(n, h) for n in CAPS for h in SCALES], got):
        value, where = log_seminorm(phi, cap, h, WS3, grid=grid)
        assert _bits((value, where["argmax_x"], where["argmax_m"])) \
            == _bits(cell)


def test_empty_grids_and_zero_functions_have_no_argmax():
    phi = _ball(0)
    assert log_seminorm(phi, 2, 1.0, WS3, grid=[]) == (
        -math.inf, {"argmax_x": None, "argmax_m": None})
    zero = TestFunction([])
    report = membership_report(zero, WS3)
    assert all(c["log_value"] is None and c["argmax_x"] is None
               for c in report["cells"])
    assert dual_seminorm_pair(zero, WS3, WS3, 1.0, 4) == 0.0
    assert dual_seminorm_pair(phi, WS3, WS3, 1.0, 4, grid=[]) == 0.0
