"""Atom evaluation, exact derivatives, closed-form moments, seminorms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsmoment import atoms
from gsmoment import (Atom, DepthExceeded, InvalidParameter, TestFunction,
                      UnsupportedAtom, dual_seminorm_pair, flat, gauss_poly,
                      gevrey, log_seminorm, seminorm)

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


def test_derivative_order_cap():
    with pytest.raises(DepthExceeded):
        flat(0).eval_derivative(1.0, 65)
    with pytest.raises(InvalidParameter):
        flat(0).eval_derivative(1.0, -1)


def test_derivative_cache_stays_bounded():
    for k in range(100):
        assert np.isfinite(flat(k).eval_derivative(1.0, 2))
        assert len(atoms._DERIV_CACHE) <= atoms._CACHE_SIZE


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
