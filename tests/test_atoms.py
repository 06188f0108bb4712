"""Atom evaluation, exact derivatives, closed-form moments, seminorms."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsmoment import atoms
from gsmoment import (Atom, DepthExceeded, InvalidParameter, TestFunction,
                      UnsupportedAtom, dual_seminorm_pair, flat, gauss_poly,
                      gevrey, log_seminorm, q_gevrey, seminorm,
                      solve_moments, unit_ball_target)

# independently computed reference values (25-digit arithmetic):
# integral of x^p exp(-1/x - x) over the half line equals twice the
# modified Bessel K_{p+1} at argument 2
FLAT_MOMENTS = [
    0.2797317636330448545691976,
    0.5075195091321117258746368,
    1.294770781897268306318471,
    4.39183185482391664483005,
    18.86209820119293488563867,
]
A1_AT_001 = 3.683060601593702727751e-46


def test_flat_atom_value_and_stationary_point():
    phi = flat(0)
    assert phi(1.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
    # envelope derivative (x^-2 - 1) vanishes at x = 1
    assert phi.eval_derivative(1.0, 1) == pytest.approx(0.0, abs=1e-18)


def test_call_is_the_order_zero_derivative_and_repr_counts_atoms():
    phi = flat(0) + 0.5j * flat(3) + 2.0 * gauss_poly(1)
    xs = np.array([-1.5, 0.0, 0.3, 1.0, 4.0])
    np.testing.assert_array_equal(phi(xs), phi.eval_derivative(xs, 0))
    assert phi(0.3) == phi.eval_derivative(0.3, 0)
    assert repr(phi) == "TestFunction(3 atoms)"
    assert repr(flat(0) + flat(0)) == "TestFunction(1 atoms)"


def test_flat_atom_vanishes_off_the_half_line():
    phi = flat(2)
    assert phi(0.0) == 0.0
    assert phi(-3.0) == 0.0
    assert phi.eval_derivative(-1.0, 5) == 0.0


def test_flat_atom_deep_decay_at_origin():
    phi = flat(1)
    assert phi.log_abs_derivative(0.01) == pytest.approx(
        math.log(A1_AT_001), rel=1e-13)
    # the float value itself underflows gracefully
    assert phi(0.005) == pytest.approx(math.exp(phi.log_abs_derivative(0.005)),
                                       rel=1e-10)


def test_flat_moments_match_reference_values():
    phi = flat(0)
    for p, ref in enumerate(FLAT_MOMENTS):
        assert phi.moment(p) == pytest.approx(ref, rel=1e-14)
    # the power offset shifts the moment index
    assert flat(2).moment(1) == pytest.approx(FLAT_MOMENTS[3], rel=1e-14)


def test_gaussian_moments_closed_form():
    g0 = gauss_poly(0)
    assert g0.moment(0) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert g0.moment(1) == 0.0  # odd symmetry kills it exactly
    assert gauss_poly(1).moment(1) == pytest.approx(
        0.8862269254527580136491, rel=1e-15)
    assert gauss_poly(3).moment(2) == 0.0


def test_moments_beyond_float_range_are_infinite():
    # Gamma(200.5) and 2 K_401(2) both overflow a double
    assert gauss_poly(0).moment(400) == math.inf
    assert flat(0).moment(400) == math.inf
    assert gauss_poly(0).moment(401) == 0.0


def test_complex_coefficients_times_infinite_moments():
    # real and imaginary parts are scaled apart: a zero part adds 0, not
    # 0 * inf = nan
    assert flat(0, 1j).moment(400) == complex(0.0, math.inf)
    assert gauss_poly(0, 1j).moment(400) == complex(0.0, math.inf)
    assert (flat(0) + flat(1, 1j)).moment(400) == complex(math.inf, math.inf)
    assert (flat(0) + flat(1, 1j)).moment(3) == pytest.approx(
        flat(0).moment(3) + 1j * flat(1).moment(3), rel=1e-15)
    with pytest.raises(InvalidParameter, match="order 400"):
        (flat(0) - flat(1)).moment(400)


def test_moments_match_numerical_quadrature():
    from scipy.integrate import quad
    phi = flat(1) + 0.5 * flat(0)
    for p in range(4):
        ref, err = quad(lambda x, p=p: x ** p * phi(x), 0, np.inf, limit=200)
        assert phi.moment(p) == pytest.approx(ref, rel=1e-10)
    g = gauss_poly(2)
    for p in range(4):
        ref, err = quad(lambda x, p=p: x ** p * g(x), -np.inf, np.inf,
                        limit=200)
        assert g.moment(p) == pytest.approx(ref, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("phi", [flat(0), flat(3), gauss_poly(0),
                                 gauss_poly(2)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_derivatives_match_central_differences(phi, m):
    h = 1e-5
    for x in (0.4, 1.0, 2.3):
        fd = (phi.eval_derivative(x + h, m - 1)
              - phi.eval_derivative(x - h, m - 1)) / (2 * h)
        exact = phi.eval_derivative(x, m)
        scale = max(1.0, abs(exact))
        assert exact == pytest.approx(fd, abs=1e-7 * scale)


def test_reflected_flat_mirrors_the_graph():
    phi = TestFunction([(Atom("flat_halfline", 0, reflected=True), 1.0)])
    base = flat(0)
    assert phi(-1.0) == pytest.approx(base(1.0), rel=1e-15)
    assert phi(1.0) == 0.0
    # odd orders flip sign under reflection
    assert phi.eval_derivative(-0.7, 1) == pytest.approx(
        -base.eval_derivative(0.7, 1), rel=1e-13)
    assert phi.support == "real"


def test_reflected_gaussian_folds_into_plain_atom():
    refl = TestFunction([(Atom("gaussian_poly", 3, reflected=True), 2.0)])
    plain = gauss_poly(3, -2.0)
    assert refl.atoms == plain.atoms


def test_linear_algebra_on_atom_sets():
    a, b = flat(0), flat(1)
    combo = 2.0 * a + b - a
    assert combo(0.9) == pytest.approx(a(0.9) + b(0.9), rel=1e-14)
    assert (a - a).is_zero
    assert not a.is_real or a.is_real  # property evaluates
    assert (1j * a).is_real is False


@settings(max_examples=50, deadline=None)
@given(c1=st.floats(-5, 5), c2=st.floats(-5, 5),
       x=st.floats(0.05, 4.0), m=st.integers(0, 5))
def test_evaluation_is_linear_in_coefficients(c1, c2, x, m):
    a, b = flat(0), gauss_poly(1)
    lhs = (c1 * a + c2 * b).eval_derivative(x, m)
    rhs = (c1 * a.eval_derivative(x, m) + c2 * b.eval_derivative(x, m))
    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-300)


def test_serialization_roundtrip():
    phi = flat(2, 1.5 - 0.25j) + gauss_poly(1, 2.0)
    back = TestFunction.from_dict(phi.to_dict())
    assert back.atoms == phi.atoms
    data = phi.to_dict()
    assert all(isinstance(item, list) for item in data["atoms"])


def test_atom_validation():
    with pytest.raises(UnsupportedAtom):
        Atom("cosine", 0)
    with pytest.raises(InvalidParameter):
        Atom("flat_halfline", -9)
    with pytest.raises(InvalidParameter):
        Atom("gaussian_poly", -1)
    with pytest.raises(InvalidParameter):
        Atom("flat_halfline", 0.5)


@pytest.mark.parametrize("spec", [
    ["flat_halfline", 1.5, 1, 0],      # was read as power 1
    ("flat_halfline", 0.5, 1.0),       # was read as power 0
    ["flat_halfline", "1", 1, 0],      # a string is not a power
    ["flat_halfline", True, 1, 0],     # nor is a bool
    ["flat_halfline", 1, 1, 0, "no"],  # was read as reflected
    ["flat_halfline", 1, 1, 0, 1],     # a reflection is a bool
])
def test_atom_specs_are_checked_not_coerced(spec):
    with pytest.raises(InvalidParameter):
        TestFunction([spec])


def test_integral_float_powers_and_bool_reflections_are_read():
    phi = TestFunction([["flat_halfline", 2.0, 1, 0, False],
                        ["flat_halfline", 1, 0.5, 0, np.True_],
                        ("gaussian_poly", np.int64(3), 2.0)])
    assert [(a.kind, a.k, a.reflected) for a, _ in phi.atoms] == [
        ("flat_halfline", 1, True), ("flat_halfline", 2, False),
        ("gaussian_poly", 3, False)]
    assert all(type(a.k) is int for a, _ in phi.atoms)


def test_derivative_order_cap():
    with pytest.raises(DepthExceeded):
        flat(0).eval_derivative(1.0, 65)
    with pytest.raises(InvalidParameter):
        flat(0).eval_derivative(1.0, -1)
    # the rule multiplies by about k per order: x^(10^5) overflows floats
    # before order 64, and is refused rather than evaluated from infs
    with pytest.raises(DepthExceeded):
        flat(10 ** 5).eval_derivative(1.0, 64)


def test_negative_derivative_orders_are_refused():
    phi = flat(0)
    phi.log_abs_derivative(1.0, 5)
    for m in (-1, -2, -6):
        with pytest.raises(InvalidParameter):
            phi.log_abs_derivative(1.0, m)
        with pytest.raises(InvalidParameter):
            phi.eval_derivative(np.array([0.5, 1.0]), m)


def test_derivative_tables_live_on_the_instance():
    # no module state: evaluating many functions leaves nothing behind,
    # and each function holds exactly the orders it was asked for
    module_state = {name: value for name, value in vars(atoms).items()
                    if isinstance(value, (dict, list, set))
                    and not name.startswith("__")}
    assert module_state == {}
    for k in range(100):
        assert np.isfinite(flat(k).eval_derivative(1.0, 2))
    phi = flat(3) + gauss_poly(1)
    phi.log_abs_derivative(1.0, 5)
    assert len(phi._orders) == 6
    assert len(flat(3)._orders) == 1


def test_value_and_log_magnitude_agree_on_a_mix_of_envelopes():
    reflected = TestFunction([("flat_halfline", 2, 0.5, -0.25, True)])
    phi = flat(1, 2.0) + reflected + gauss_poly(1, 0.5) + gauss_poly(2, -1.5)
    xs = np.array([-6.0, -2.0, -0.7, -0.1, 0.0, 0.1, 0.7, 2.0, 6.0])
    for m in range(6):
        values = phi.eval_derivative(xs, m)
        logs = phi.log_abs_derivative(xs, m)
        assert np.all(np.isfinite(logs[np.abs(values) > 0.0]))
        with np.errstate(divide="ignore"):
            direct = np.log(np.abs(values))
        np.testing.assert_allclose(direct, logs, rtol=1e-13, atol=1e-13)
    # at 0 only the Gaussian constant terms live: phi(0) = 0, phi'(0) = 0.5
    assert phi.log_abs_derivative(0.0, 0) == -math.inf
    assert phi.eval_derivative(0.0, 1) == pytest.approx(0.5, rel=1e-15)


def test_coefficients_that_flush_to_zero_drop_out():
    # parts are scaled by the power of two of the largest one, which
    # takes a subnormal coefficient to zero: it adds nothing, and the
    # order-0 row must not divide by its modulus
    phi = 2.0 * flat(0) + 5e-324 * gauss_poly(1)
    assert len(phi.atoms) == 2
    assert phi(1.0) == 2.0 * flat(0)(1.0)
    assert phi.eval_derivative(1.0, 1) == 2.0 * flat(0).eval_derivative(1.0, 1)


def test_negative_power_atoms_evaluate():
    phi = flat(-8)
    assert phi(0.5) == pytest.approx(0.5 ** -8 * math.exp(-2.5), rel=1e-13)
    assert np.isfinite(phi.eval_derivative(0.3, 4))


def test_flat_atoms_stay_below_half_exponent_envelope_near_zero():
    # deep flatness at the origin: every derivative is eventually dominated
    # by exp(-1/(2x)); the crossover has happened by x = 0.004
    xs = np.geomspace(1e-4, 0.004, 120)
    for k in (0, 1, 2):
        phi = flat(k)
        for m in range(9):
            logs = phi.log_abs_derivative(xs, m)
            assert np.all(logs <= -0.5 / xs + 1e-12), (k, m)


def test_weighted_seminorm_small_scale_limit():
    # as the scale shrinks the weight term dies and the sup-norm of the
    # bare function remains: max of exp(-1/x - x) is e^-2 at x = 1
    ws = gevrey(2.0, horizon=256)
    val = seminorm(flat(0), order_cap=0, h=1e-6, ws=ws)
    assert val == pytest.approx(math.exp(-2.0), rel=1e-10)


def test_weighted_seminorm_monotone_in_order_cap_and_scale():
    ws = gevrey(2.0, horizon=256)
    phi = flat(0) + flat(1)
    logs_by_cap = [log_seminorm(phi, cap, 0.5, ws)[0] for cap in (0, 2, 4)]
    assert logs_by_cap[0] <= logs_by_cap[1] + 1e-12
    assert logs_by_cap[1] <= logs_by_cap[2] + 1e-12
    logs_by_h = [log_seminorm(phi, 2, h, ws)[0] for h in (0.25, 1.0, 4.0)]
    assert logs_by_h[0] <= logs_by_h[1] + 1e-12
    assert logs_by_h[1] <= logs_by_h[2] + 1e-12


def test_seminorm_reports_argmax_location():
    ws = gevrey(2.0, horizon=256)
    logv, where = log_seminorm(flat(0), 2, 1.0, ws)
    assert where["argmax_m"] in (0, 1, 2)
    assert where["argmax_x"] > 0
    assert math.isfinite(logv)


def test_dual_pairing_seminorm_is_finite_for_atoms():
    weight = gevrey(2.0, horizon=256)
    amplitude = gevrey(3.0, horizon=256)
    val = dual_seminorm_pair(flat(1), weight, amplitude, 1.0, order_cap=4)
    assert math.isfinite(val) and val > 0


def _reference_shifted_sum(phi, x, m):
    """The per-call evaluation that TestFunction._shifted_sum replaced:
    every array rebuilt from the polynomials and the grid on each call."""
    logs, phases = [], []
    for kind, reflected, poly in phi._order(m)[0]:
        y = -x if reflected else x
        inside = np.isfinite(y)
        if kind == atoms.FLAT:
            inside &= y > 0.0
            ys = np.where(inside, y, 1.0)
            env = -1.0 / ys - ys
        else:
            ys = np.where(inside, y, 0.0)
            env = -np.square(ys)
        terms = sorted(poly.items())
        powers = np.array([j for j, _ in terms], dtype=float)[:, None]
        mods = np.array([abs(c) for _, c in terms])[:, None]
        units = np.array([c / abs(c) for _, c in terms])[:, None]
        nz = ys != 0.0
        logy = np.log(np.abs(np.where(nz, ys, 1.0)))
        logterm = np.log(mods) + powers * logy + env
        dead = ~inside | ((powers != 0.0) & ~nz)
        logs.append(np.where(dead, -math.inf, logterm))
        odd = ((powers % 2.0) != 0.0) & (ys < 0.0)
        phases.append(np.where(odd, -1.0, 1.0) * units)
    if not logs:
        return np.full(x.shape, -math.inf), np.zeros(x.shape, dtype=complex)
    logterm = np.concatenate(logs)
    shift = logterm.max(axis=0)
    safe_shift = np.where(np.isfinite(shift), shift, 0.0)
    acc = np.sum(np.concatenate(phases) * np.exp(logterm - safe_shift),
                 axis=0)
    return shift + phi._log_scale, acc


def _ball_functions_and_grids():
    ws = gevrey(3.0, horizon=256)
    for seed, h in ((0, 0.25), (1, 1.0), (2, 4.0)):
        sol = solve_moments(unit_ball_target(ws, 12, h, seed), ws,
                            verify=False)
        yield sol.function, atoms.default_grid(ws, h)


def test_rows_match_the_per_call_reference_bit_for_bit():
    # whole rows only: numpy sums a single column pairwise, so a point
    # evaluated alone may differ in its last bits from the same point
    # inside a grid, with either evaluation
    edge = np.array([-np.inf, -6.0, -2.0, -0.7, -1e-300, -5e-324, -0.0, 0.0,
                     5e-324, 1e-300, 1e-3, 0.7, 2.0, 6.0, np.inf, np.nan])
    grids = [edge, edge[edge > 0.0], np.array([-0.5]), np.array([-0.5, 0.0]),
             np.linspace(-5.0, 5.0, 101), np.geomspace(1e-4, 50.0, 200)]
    reflected = TestFunction([("flat_halfline", 2, 0.5, -0.25, True),
                              ("flat_halfline", 0, 0.0, 1.0, True)])
    functions = [flat(0) + flat(3, -2.5) + flat(-2, 1j), flat(2, -1j),
                 reflected, gauss_poly(0) + gauss_poly(5, 1 + 1j),
                 flat(1, 2.0) + reflected + gauss_poly(3, -1.5j),
                 TestFunction([])]
    cases = [(phi, g) for phi in functions for g in grids]
    cases += list(_ball_functions_and_grids())
    for phi, grid in cases:
        for m in range(9):
            with np.errstate(all="ignore"):
                want = _reference_shifted_sum(phi, grid, m)
                got = phi._shifted_sum(grid, m)
            for w, g in zip(want, got):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes(), (phi, grid, m)


def test_term_arrays_are_built_once_per_order(monkeypatch):
    builds = []
    plain = atoms._term_arrays
    monkeypatch.setattr(atoms, "_term_arrays",
                        lambda groups: builds.append(groups) or plain(groups))
    phi = TestFunction([("flat_halfline", 1, 2.0), ("gaussian_poly", 2, 1.0)])
    grids = [np.linspace(-3.0, 3.0, n) for n in (7, 9, 11, 13, 15, 17)]
    for grid in grids * 2:
        for m in range(9):
            phi.log_abs_derivative(grid, m)
    assert len(builds) == 9
    assert [g for g, _ in phi._orders] == builds


def test_grid_arrays_are_built_once_per_remembered_grid(monkeypatch):
    builds = []
    plain = atoms._grid_arrays
    monkeypatch.setattr(atoms, "_grid_arrays",
                        lambda x, *group: builds.append(group) or plain(x, *group))
    phi = flat(1, 2.0) + gauss_poly(2)  # two envelope groups
    grid = np.linspace(-3.0, 3.0, 31)
    for m in range(9):
        phi.log_abs_derivative(grid, m)
    assert len(builds) == 2
    # the memo keeps a fixed number of grids, the last used first
    others = [np.linspace(-2.0, 2.0, n) for n in range(5, 5 + atoms._GRID_MEMO)]
    for other in others:
        phi.log_abs_derivative(other, 3)
        assert len(phi._grids) <= atoms._GRID_MEMO
    assert len(builds) == 2 * (1 + atoms._GRID_MEMO)
    phi.log_abs_derivative(others[-1].copy(), 4)  # keyed by contents
    assert len(builds) == 2 * (1 + atoms._GRID_MEMO)
    phi.log_abs_derivative(grid, 0)  # forgotten, so built again
    assert len(builds) == 2 * (2 + atoms._GRID_MEMO)


@pytest.mark.parametrize("whole_line", [False, True])
def test_default_grid_is_the_sorted_union(whole_line):
    for ws in (gevrey(2.0, horizon=256), q_gevrey(1.5, horizon=64),
               gevrey(1.0, horizon=64)):
        for h in (0.01, 0.25, 1.0, 4.0, 100.0, 1e4, 1e5):
            upper = atoms._grid_upper(ws, h)
            grid = atoms.default_grid(ws, h, whole_line=whole_line)
            if upper <= 1e-3:
                continue
            pos = np.union1d(np.geomspace(1e-4, upper, 257),
                             np.linspace(1e-4, min(2.0, upper), 65))
            want = np.concatenate([-pos[::-1], pos]) if whole_line else pos
            assert grid.dtype == want.dtype
            assert grid.tobytes() == want.tobytes()


def test_default_grid_leaves_numpy_ma_unloaded():
    # np.union1d imports numpy.ma on its first call, ~15 ms per process
    script = ("import sys, gsmoment\n"
              "from gsmoment.atoms import default_grid\n"
              "default_grid(gsmoment.gevrey(3.0, horizon=256), 1.0, True)\n"
              "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(atoms.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    assert out.stdout.strip() == "False"
