"""Function and sequence transforms: substitutions, parity, multipliers."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from gsmoment import (DepthExceeded, InvalidParameter, SingularMultiplier,
                      UnsupportedAtom, apply_operator, divide_by_x,
                      even_entries, even_odd_parts, even_part, flat, fold,
                      gauss_poly, interleave, multiplier_shift,
                      multiplier_unshift, multiply_by_x, odd_entries,
                      odd_part, reciprocal_jet, reflect, sign_twist,
                      sqrt_substitute, square_substitute)
from gsmoment.transforms import OPERATORS, halfline_moment


def _quad_halfline(f, p):
    val, err = quad(lambda x: x ** p * f(x), 0, np.inf, limit=300)
    return val


def test_halfline_moments_beyond_float_range_are_infinite():
    assert halfline_moment(gauss_poly(0), 400) == math.inf
    assert halfline_moment(gauss_poly(0), 401) == math.inf
    assert halfline_moment(flat(0), 400) == math.inf
    assert halfline_moment(gauss_poly(0), 4) == pytest.approx(
        0.75 * math.sqrt(math.pi) / 2.0, rel=1e-15)


def test_complex_coefficients_times_infinite_halfline_moments():
    assert halfline_moment(flat(0, 1j), 400) == complex(0.0, math.inf)
    assert halfline_moment(flat(0) + flat(1, 1j), 400) == \
        complex(math.inf, math.inf)
    with pytest.raises(InvalidParameter, match="order 400"):
        halfline_moment(flat(0) - flat(1, 2.0), 400)


def test_multiply_divide_by_x_shift_the_power():
    phi = flat(0, 2.0)
    up = multiply_by_x(phi)
    assert up(1.5) == pytest.approx(1.5 * phi(1.5), rel=1e-14)
    down = divide_by_x(phi)
    assert down(1.5) == pytest.approx(phi(1.5) / 1.5, rel=1e-14)
    assert divide_by_x(up).atoms == phi.atoms


def test_divide_by_x_respects_power_floor():
    phi = flat(-8)
    with pytest.raises(UnsupportedAtom):
        divide_by_x(phi)
    with pytest.raises(UnsupportedAtom):
        divide_by_x(gauss_poly(0))


def test_reflection_and_parity_reconstruction():
    phi = flat(1, 1.0) + flat(2, -0.5)
    even, odd = even_odd_parts(phi)
    for x in (-1.3, 0.4, 2.0):
        assert even(x) + odd(x) == pytest.approx(phi(x), rel=1e-13,
                                                 abs=1e-300)
        assert even(-x) == pytest.approx(even(x), rel=1e-13, abs=1e-300)
        assert odd(-x) == pytest.approx(-odd(x), rel=1e-13, abs=1e-300)
    assert even_part(phi).atoms == even.atoms
    assert odd_part(phi).atoms == odd.atoms


def test_fold_symmetrizes_and_doubles_even_moments():
    g = gauss_poly(0)
    folded = fold(g)
    assert folded.moment(0) == pytest.approx(2 * math.sqrt(math.pi),
                                             rel=1e-14)
    f = fold(flat(0))
    assert f(-1.0) == pytest.approx(f(1.0), rel=1e-15)


def test_sqrt_substitution_moment_identity():
    # integrating psi(x) = phi(sqrt x) against x^p equals twice the
    # (2p+1)-st half-line moment of phi
    phi = flat(1) + 0.5 * flat(0)
    handle = sqrt_substitute(phi)
    for p in range(4):
        direct = _quad_halfline(lambda x: phi(math.sqrt(x)), p)
        assert handle.moment(p) == pytest.approx(direct, rel=1e-9)
        assert handle.moment(p) == pytest.approx(
            2.0 * halfline_moment(phi, 2 * p + 1), rel=1e-13)


def test_weighted_square_substitution_moment_identity():
    # psi(x) = 2 x phi(x^2) reproduces the base moments on even indices
    phi = flat(0)
    handle = square_substitute(phi, weighted=True)
    for q in range(4):
        assert handle.moment(2 * q) == pytest.approx(
            halfline_moment(phi, q), rel=1e-13)
        direct = _quad_halfline(lambda x: 2 * x * phi(x * x), 2 * q)
        assert handle.moment(2 * q) == pytest.approx(direct, rel=1e-9)


def test_substitution_handle_call_is_its_order_zero_value():
    phi = flat(1) + 0.5 * flat(0)
    xs = np.array([0.05, 0.2, 0.7, 1.5, 6.0])
    for handle in (sqrt_substitute(phi), square_substitute(phi),
                   square_substitute(phi, weighted=False)):
        np.testing.assert_array_equal(handle(xs), handle.eval_derivative(xs, 0))
        assert handle(0.7) == handle.eval_derivative(0.7, 0)


def test_plain_square_substitution_moment_identity():
    # psi(x) = 2 phi(x^2) reproduces the base moments on odd indices
    phi = flat(0)
    handle = square_substitute(phi, weighted=False)
    for q in range(4):
        assert handle.moment(2 * q + 1) == pytest.approx(
            halfline_moment(phi, q), rel=1e-13)


def test_substitution_handles_evaluate_derivatives():
    phi = flat(0)
    handle = sqrt_substitute(phi)
    x = 1.7
    assert handle.eval_derivative(x, 0) == pytest.approx(
        phi(math.sqrt(x)), rel=1e-13)
    h = 1e-6
    fd = (handle.eval_derivative(x + h) - handle.eval_derivative(x - h)) / (2 * h)
    assert handle.eval_derivative(x, 1) == pytest.approx(fd, rel=1e-6)
    with pytest.raises(DepthExceeded):
        handle.eval_derivative(x, 9)


def test_entry_streams_split_and_reassemble():
    seq = (1.0, 2.0, 3.0, 4.0, 5.0)
    assert even_entries(seq) == (1.0, 3.0, 5.0)
    assert odd_entries(seq) == (2.0, 4.0)
    assert interleave(even_entries(seq), odd_entries(seq)) == seq
    # unbalanced streams keep their trailing entries
    assert interleave((1.0, 2.0, 3.0), ()) == (1.0, 0.0, 2.0, 0.0, 3.0)
    assert interleave((), (7.0,)) == (0.0, 7.0)


def test_sign_twist_has_period_four():
    seq = tuple(complex(n + 1, n) for n in range(9))
    once = sign_twist(seq)
    assert once[0] == seq[0]
    assert once[1] == seq[1] * -1j
    assert once[2] == -seq[2]
    four = sign_twist(sign_twist(sign_twist(once)))
    assert four == seq


def test_reciprocal_jet_of_constant_exponential_jet_alternates():
    jet = (1,) * 8
    rec = reciprocal_jet(jet)
    assert rec == (1, -1, 1, -1, 1, -1, 1, -1)
    assert all(isinstance(v, int) for v in rec)


def test_reciprocal_jet_requires_invertible_constant_term():
    with pytest.raises(SingularMultiplier):
        reciprocal_jet((0, 1, 2))


def test_multiplier_roundtrip_is_exact_on_integers():
    entries = tuple(range(1, 34))  # 33 entries, all integer
    for jet in ("exp", "one"):
        shifted = multiplier_shift(entries, jet)
        back = multiplier_unshift(shifted, jet)
        assert back == entries
        assert all(isinstance(v, int) for v in back)
    assert multiplier_shift(entries, "one") == entries


def test_multiplier_roundtrip_is_exact_on_rationals():
    entries = tuple(Fraction(n, 7) for n in range(1, 20))
    jet = tuple(Fraction(1, k + 1) for k in range(19))
    back = multiplier_unshift(multiplier_shift(entries, jet), jet)
    assert back == entries


def test_operator_registry_covers_both_domains():
    assert set(OPERATORS) == {"div_x", "mul_x", "sqrt_sub", "square_sub",
                              "even_part", "odd_part", "fold", "te", "to",
                              "interleave_even", "sign_twist"}
    phi = flat(1)
    assert apply_operator("mul_x", phi).atoms == multiply_by_x(phi).atoms
    seq = (1.0, 2.0, 3.0)
    assert apply_operator("te", seq) == even_entries(seq)
    assert apply_operator("to", seq) == odd_entries(seq)
    assert apply_operator("sign_twist", seq) == sign_twist(seq)
    with pytest.raises(InvalidParameter):
        apply_operator("nope", phi)


def test_reflect_moves_mass_to_negative_axis():
    phi = flat(0)
    r = reflect(phi)
    assert r(-2.0) == pytest.approx(phi(2.0), rel=1e-15)
    assert r(2.0) == 0.0
    assert reflect(r).atoms == phi.atoms
